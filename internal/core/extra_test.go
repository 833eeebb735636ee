package core

import (
	"math"
	"testing"

	"github.com/quartz-emu/quartz/internal/machine"
	"github.com/quartz-emu/quartz/internal/perf"
	"github.com/quartz-emu/quartz/internal/sim"
	"github.com/quartz-emu/quartz/internal/simos"
)

// TestPAPIModeCostsMore reproduces §3.2's argument for rdpmc: with
// PAPI-style virtualized counter access (~30k cycles per epoch), the
// switched-off emulator overhead is markedly higher than with rdpmc.
func TestPAPIModeCostsMore(t *testing.T) {
	run := func(mode perf.AccessMode) sim.Time {
		_, p := newMachineProc(t, machine.XeonE5_2660v2, simos.Options{AllowedSockets: []int{0}, DefaultNode: -1})
		cfg := fastCfg(800)
		cfg.CounterMode = mode
		cfg.InjectionOff = true
		cfg.MaxEpoch = 200 * sim.Microsecond // frequent epochs expose read cost
		cfg.MinEpoch = 10 * sim.Microsecond
		e, err := Attach(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ch := buildChase(t, p, 0, chaseLines, 13)
		var ct sim.Time
		if err := e.Run(func(th *simos.Thread) {
			start := th.Now()
			ch.run(th, 40_000)
			ct = th.Now() - start
		}); err != nil {
			t.Fatal(err)
		}
		return ct
	}
	rdpmc := run(perf.RDPMC)
	papi := run(perf.PAPI)
	if papi <= rdpmc {
		t.Errorf("PAPI run %v not slower than rdpmc %v", papi, rdpmc)
	}
	// The per-epoch gap is 28k cycles; over hundreds of epochs it must be
	// clearly visible but not catastrophic.
	if float64(papi)/float64(rdpmc) > 1.5 {
		t.Errorf("PAPI/rdpmc ratio %.2f implausibly large", float64(papi)/float64(rdpmc))
	}
}

// TestDVFSBreaksAccuracy demonstrates the §6 requirement: with DVFS enabled
// (bypassing the attach-time check by flipping it afterwards), the
// cycles-to-time translation drifts and the emulated latency misses the
// target by far more than the DVFS-off run.
func TestDVFSBreaksAccuracy(t *testing.T) {
	const target = 600.0
	run := func(dvfs bool) float64 {
		m, p := newMachineProc(t, machine.XeonE5_2660v2, simos.Options{AllowedSockets: []int{0}, DefaultNode: -1})
		e, err := Attach(p, fastCfg(target))
		if err != nil {
			t.Fatal(err)
		}
		if dvfs {
			m.DVFS().SetEnabled(true) // what the paper tells you not to do
		}
		ch := buildChase(t, p, 0, chaseLines, 15)
		var per sim.Time
		if err := e.Run(func(th *simos.Thread) {
			start := th.Now()
			cur := int32(0)
			const iters = 40_000
			for i := 0; i < iters; i++ {
				th.Load(ch.base + uintptr(cur)*64)
				cur = ch.next[cur]
				th.Compute(40) // compute between accesses is what DVFS stretches
			}
			per = (th.SettledNow() - start) / iters
		}); err != nil {
			t.Fatal(err)
		}
		return math.Abs(per.Nanoseconds()-(target+40/2.2)) / target
	}
	errOff := run(false)
	errOn := run(true)
	t.Logf("emulation error: DVFS off %.2f%%, DVFS on %.2f%%", errOff*100, errOn*100)
	if errOn <= errOff {
		t.Errorf("DVFS did not degrade accuracy (off %.2f%%, on %.2f%%)", errOff*100, errOn*100)
	}
}

// TestBarrierPropagatesDelay checks the §7 extension: a thread whose
// critical path runs through a barrier observes the slow thread's injected
// delay, keeping emulated rendezvous timing consistent with Conf_2.
func TestBarrierPropagatesDelay(t *testing.T) {
	_, p := newMachineProc(t, machine.XeonE5_2660v2, simos.Options{AllowedSockets: []int{0}, DefaultNode: -1})
	cfg := fastCfg(600)
	cfg.MinEpoch = 5 * sim.Microsecond
	e, err := Attach(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bar, err := p.NewBarrier("b", 2)
	if err != nil {
		t.Fatal(err)
	}
	ch := buildChase(t, p, 0, chaseLines, 17)
	var fastAfter, slowArrive sim.Time
	if err := e.Run(func(th *simos.Thread) {
		slow, err := th.CreateThread("slow", func(t2 *simos.Thread) {
			cur := int32(0)
			for i := 0; i < 3000; i++ { // memory-bound: accrues delay
				t2.Load(ch.base + uintptr(cur)*64)
				cur = ch.next[cur]
			}
			slowArrive = t2.Now()
			bar.Wait(t2)
		})
		if err != nil {
			th.Failf("create: %v", err)
		}
		fast, err := th.CreateThread("fast", func(t2 *simos.Thread) {
			t2.Compute(1000) // nearly no memory work
			bar.Wait(t2)
			fastAfter = t2.Now()
		})
		if err != nil {
			th.Failf("create: %v", err)
		}
		th.Join(slow)
		th.Join(fast)
	}); err != nil {
		t.Fatal(err)
	}
	// slowArrive is sampled before the barrier's sync epoch injects the
	// final chunk of delay; the fast thread must still leave the barrier
	// at (or after) the slow thread's delayed arrival.
	if fastAfter < slowArrive {
		t.Errorf("fast thread left barrier at %v before the slow arrival at %v", fastAfter, slowArrive)
	}
	if e.Stats().SyncEpochs == 0 {
		t.Error("barrier wait closed no sync epochs")
	}
}

// TestAsymmetricWriteBandwidth drives writeback-heavy traffic under a write
// bandwidth cap and checks reads stay unthrottled.
func TestAsymmetricWriteBandwidth(t *testing.T) {
	m, p := newMachineProc(t, machine.XeonE5_2660v2, simos.Options{AllowedSockets: []int{0}, DefaultNode: -1})
	cfg := fastCfg(200)
	cfg.NVMWriteBandwidth = 2e9 // writes capped; reads unthrottled
	if _, err := Attach(p, cfg); err != nil {
		t.Fatal(err)
	}
	ctrl := m.Socket(0).Ctrl
	if ctrl.ChannelWriteBandwidth() >= ctrl.ChannelBandwidth() {
		t.Errorf("write bw %g not below read bw %g", ctrl.ChannelWriteBandwidth(), ctrl.ChannelBandwidth())
	}
	wantWrite := 2e9 / float64(m.Config().Mem.Channels)
	if got := ctrl.ChannelWriteBandwidth(); math.Abs(got-wantWrite)/wantWrite > 0.05 {
		t.Errorf("per-channel write bw = %g, want ~%g", got, wantWrite)
	}
}

// TestMonitorDriftTolerated: the monitor wakes on a fixed interval, so
// epochs can exceed MaxEpoch by up to one interval (§3.1 notes the drift is
// acceptable); accuracy must hold regardless of the monitor phase.
func TestMonitorDriftTolerated(t *testing.T) {
	for _, interval := range []sim.Time{200 * sim.Microsecond, 900 * sim.Microsecond} {
		_, p := newMachineProc(t, machine.XeonE5_2660v2, simos.Options{AllowedSockets: []int{0}, DefaultNode: -1})
		cfg := fastCfg(500)
		cfg.MonitorInterval = interval
		e, err := Attach(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ch := buildChase(t, p, 0, chaseLines, 19)
		var per sim.Time
		if err := e.Run(func(th *simos.Thread) {
			start := th.Now()
			cur := int32(0)
			const iters = 50_000
			for i := 0; i < iters; i++ {
				th.Load(ch.base + uintptr(cur)*64)
				cur = ch.next[cur]
			}
			per = (th.SettledNow() - start) / iters
		}); err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(per.Nanoseconds()-500) / 500; rel > 0.05 {
			t.Errorf("interval %v: measured %.1fns, error %.2f%% > 5%%", interval, per.Nanoseconds(), rel*100)
		}
	}
}

// TestNanosleepUnderEmulation: an emulated application sleeping in a
// "syscall" gets interrupted by the monitor's epoch signal and must see
// EINTR, the §3.1 interaction the paper warns about.
func TestNanosleepUnderEmulation(t *testing.T) {
	_, p := newMachineProc(t, machine.XeonE5_2660v2, simos.Options{AllowedSockets: []int{0}, DefaultNode: -1})
	cfg := fastCfg(800)
	cfg.MaxEpoch = 500 * sim.Microsecond
	cfg.MonitorInterval = 250 * sim.Microsecond
	e, err := Attach(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ch := buildChase(t, p, 0, chaseLines, 23)
	sawEINTR := false
	if err := e.Run(func(th *simos.Thread) {
		// Accrue memory work so the monitor has a reason to signal...
		cur := int32(0)
		for i := 0; i < 20_000; i++ {
			th.Load(ch.base + uintptr(cur)*64)
			cur = ch.next[cur]
		}
		// ...then block in a long "syscall"; a robust application retries.
		remaining := 5 * sim.Millisecond
		for remaining > 0 {
			before := th.Now()
			if err := th.Nanosleep(remaining); err == nil {
				break
			}
			sawEINTR = true
			remaining -= th.Now() - before
		}
	}); err != nil {
		t.Fatal(err)
	}
	if !sawEINTR {
		t.Skip("monitor did not interrupt the sleep in this phase alignment")
	}
}
