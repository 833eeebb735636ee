package core

import (
	"strings"
	"testing"

	"github.com/quartz-emu/quartz/internal/machine"
	"github.com/quartz-emu/quartz/internal/obs"
	"github.com/quartz-emu/quartz/internal/sim"
	"github.com/quartz-emu/quartz/internal/simos"
)

// TestRecorderReconcilesWithStats: the epoch ledger and the metrics registry
// are a second, independent accounting of the same run — they must agree
// exactly with the emulator's own Stats().
func TestRecorderReconcilesWithStats(t *testing.T) {
	rec := obs.New(0)
	_, p := newMachineProc(t, machine.XeonE5_2660v2, simosOptsSocket0())
	cfg := fastCfg(500)
	cfg.Observer = rec
	e, err := Attach(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ch := buildChase(t, p, 0, chaseLines, 21)
	if err := e.Run(func(th *simos.Thread) {
		ch.run(th, 40_000)
	}); err != nil {
		t.Fatal(err)
	}

	st := e.Stats()
	ledger := rec.Ledger()
	if int64(len(ledger)) != st.Epochs {
		t.Fatalf("ledger has %d records, Stats().Epochs = %d", len(ledger), st.Epochs)
	}
	if st.Epochs == 0 || st.Injected == 0 {
		t.Fatalf("workload closed no epochs or injected nothing: %+v", st)
	}

	var injected, delaySum, overhead sim.Time
	var maxN, syncN, endN int64
	var injectedNS int64
	for _, r := range ledger {
		injected += r.Injected
		delaySum += r.Delay
		overhead += r.Overhead
		injectedNS += int64(r.Injected / sim.Nanosecond)
		switch r.Reason {
		case "max":
			maxN++
		case "sync":
			syncN++
		case "end":
			endN++
		default:
			t.Errorf("record %d has unknown reason %q", r.Seq, r.Reason)
		}
		if r.End < r.Start {
			t.Errorf("record %d: End %v before Start %v", r.Seq, r.End, r.Start)
		}
		// The spin loop polls the TSC at SpinPollCycles granularity, so the
		// observed injection window overshoots the requested delay slightly —
		// never undershoots, and never by much.
		if r.Injected > 0 {
			window := r.InjectEnd - r.InjectStart
			if window < r.Injected || window-r.Injected > 10*sim.Microsecond {
				t.Errorf("record %d: inject window %v vs injected %v (overshoot %v)",
					r.Seq, window, r.Injected, window-r.Injected)
			}
		}
	}
	if injected != st.Injected {
		t.Errorf("ledger injected sum %v != Stats().Injected %v", injected, st.Injected)
	}
	if overhead != st.Overhead {
		t.Errorf("ledger overhead sum %v != Stats().Overhead %v", overhead, st.Overhead)
	}
	if maxN != st.MaxEpochs || syncN != st.SyncEpochs {
		t.Errorf("ledger reasons max/sync = %d/%d, Stats = %d/%d",
			maxN, syncN, st.MaxEpochs, st.SyncEpochs)
	}
	if delaySum < injected {
		t.Errorf("computed delay %v below injected %v; amortization can only withhold", delaySum, injected)
	}

	reg := rec.Registry()
	if got := reg.Counter("quartz.epochs.closed").Value(); got != st.Epochs {
		t.Errorf("epochs.closed counter = %d, Stats().Epochs = %d", got, st.Epochs)
	}
	if got := reg.Counter("quartz.delay.injected_ns").Value(); got != injectedNS {
		t.Errorf("delay.injected_ns counter = %d, ledger sum = %d", got, injectedNS)
	}
	if got := reg.Counter("quartz.epochs.reason.end").Value(); got != endN {
		t.Errorf("reason.end counter = %d, ledger count = %d", got, endN)
	}

	// The metrics snapshot must mention every quartz.* family at least.
	var sb strings.Builder
	if err := rec.WriteMetricsJSON(&sb); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"quartz.epochs.closed", "quartz.delay.injected_ns", "quartz.epoch.len_ns", "sim.kernels"} {
		if !strings.Contains(sb.String(), key) {
			t.Errorf("metrics snapshot missing %q", key)
		}
	}
}

// TestRecorderDoesNotPerturbVirtualTime: observation must be pure — an
// attached recorder advances no simulated clock, so two identical runs with
// and without one finish at the same virtual instant.
func TestRecorderDoesNotPerturbVirtualTime(t *testing.T) {
	run := func(rec *obs.Recorder) sim.Time {
		_, p := newMachineProc(t, machine.XeonE5_2660v2, simosOptsSocket0())
		cfg := fastCfg(500)
		cfg.Observer = rec
		e, err := Attach(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ch := buildChase(t, p, 0, chaseLines, 13)
		var end sim.Time
		if err := e.Run(func(th *simos.Thread) {
			ch.run(th, 30_000)
			end = th.Now()
		}); err != nil {
			t.Fatal(err)
		}
		return end
	}
	bare := run(nil)
	observed := run(obs.New(0))
	if bare != observed {
		t.Errorf("virtual completion time changed under observation: %v vs %v", bare, observed)
	}
}

// TestAttachReportsToObserver: the configured Observer is the only recorder
// an emulator reports to, and it sees the epochs, the kernel, and every
// throttle-register write Attach makes — one read and one write per
// programmed socket.
func TestAttachReportsToObserver(t *testing.T) {
	rec := obs.New(0)
	m, p := newMachineProc(t, machine.XeonE5_2660v2, simosOptsSocket0())
	cfg := fastCfg(500)
	cfg.NVMBandwidth = 5e9
	cfg.NVMWriteBandwidth = 2e9
	cfg.Observer = rec
	e, err := Attach(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ch := buildChase(t, p, 0, chaseLines, 17)
	if err := e.Run(func(th *simos.Thread) {
		ch.run(th, 20_000)
	}); err != nil {
		t.Fatal(err)
	}
	if len(rec.Ledger()) == 0 {
		t.Error("observer captured no epochs")
	}
	reg := rec.Registry()
	if got := reg.Counter("sim.kernels").Value(); got != 1 {
		t.Errorf("sim.kernels = %d, want 1", got)
	}
	for _, path := range []string{"read", "write"} {
		if got, want := reg.Counter("mem.throttle.programmed."+path).Value(), int64(len(m.Sockets())); got != want {
			t.Errorf("mem.throttle.programmed.%s = %d, want %d (one per programmed socket)", path, got, want)
		}
	}
}
