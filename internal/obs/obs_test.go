package obs

import (
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/quartz-emu/quartz/internal/sim"
)

// TestNilRecorderNoOp: every Recorder method must be callable on a nil
// receiver without panicking or allocating — the disabled path is the
// default for every emulation, so it has to be free.
func TestNilRecorderNoOp(t *testing.T) {
	var r *Recorder
	if r.Registry() != nil {
		t.Error("nil recorder has a registry")
	}
	if pid := r.RegisterProcess("x"); pid != 0 {
		t.Errorf("nil RegisterProcess = %d, want 0", pid)
	}
	r.EpochClosed(EpochRecord{Delay: sim.Microsecond})
	r.EpochSuppressed("sync")
	r.ContendedWait()
	r.KernelRun(sim.KernelStats{Spawned: 3})
	r.ThrottleProgrammed("read")
	r.JobDone("ok", time.Second)
	r.TrafficProgress(8, 50, 100, 123456, 9000)
	if got := r.Ledger(); got != nil {
		t.Errorf("nil Ledger = %v, want nil", got)
	}
	if got := r.Dropped(); got != 0 {
		t.Errorf("nil Dropped = %d, want 0", got)
	}
	var sb strings.Builder
	if err := r.WriteMetricsJSON(&sb); err != nil {
		t.Errorf("nil WriteMetricsJSON: %v", err)
	}
	if err := r.WriteChromeTrace(&sb, nil); err != nil {
		t.Errorf("nil WriteChromeTrace: %v", err)
	}
	if sb.Len() != 0 {
		t.Errorf("nil recorder wrote output: %q", sb.String())
	}

	rec := EpochRecord{Start: 1, End: 2, Delay: 3}
	if allocs := testing.AllocsPerRun(100, func() {
		r.EpochClosed(rec)
		r.EpochSuppressed("sync")
		r.ContendedWait()
	}); allocs != 0 {
		t.Errorf("nil recorder allocates: %.1f allocs/op", allocs)
	}
}

// TestConcurrentEpochClosesOrdered: many goroutines closing epochs against
// one recorder (the parallel-runner situation) must produce a ledger whose
// Seq values are dense and strictly increasing in append order, with no
// records lost. Run with -race.
func TestConcurrentEpochClosesOrdered(t *testing.T) {
	const goroutines = 8
	const perG = 500
	r := New(goroutines * perG)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pid := r.RegisterProcess("proc")
			for i := 0; i < perG; i++ {
				r.EpochClosed(EpochRecord{
					PID:      pid,
					TID:      g,
					Start:    sim.Time(i) * sim.Microsecond,
					End:      sim.Time(i+1) * sim.Microsecond,
					Reason:   "sync",
					Delay:    sim.Microsecond,
					Injected: sim.Microsecond / 2,
				})
				r.EpochSuppressed("sync")
				r.ContendedWait()
			}
		}(g)
	}
	wg.Wait()

	ledger := r.Ledger()
	if len(ledger) != goroutines*perG {
		t.Fatalf("ledger has %d records, want %d", len(ledger), goroutines*perG)
	}
	for i, rec := range ledger {
		if rec.Seq != uint64(i) {
			t.Fatalf("record %d has Seq %d; ledger order and close order diverged", i, rec.Seq)
		}
	}
	if r.Dropped() != 0 {
		t.Errorf("Dropped = %d, want 0", r.Dropped())
	}

	reg := r.Registry()
	if got := reg.Counter("quartz.epochs.closed").Value(); got != goroutines*perG {
		t.Errorf("epochs.closed = %d, want %d", got, goroutines*perG)
	}
	wantInjectedNS := int64(goroutines*perG) * ns(sim.Microsecond/2)
	if got := reg.Counter("quartz.delay.injected_ns").Value(); got != wantInjectedNS {
		t.Errorf("delay.injected_ns = %d, want %d", got, wantInjectedNS)
	}
	if got := reg.Counter("quartz.epochs.suppressed.sync").Value(); got != goroutines*perG {
		t.Errorf("epochs.suppressed.sync = %d, want %d", got, goroutines*perG)
	}
	if got := reg.Counter("simos.sync.contended_waits").Value(); got != goroutines*perG {
		t.Errorf("contended_waits = %d, want %d", got, goroutines*perG)
	}
}

// TestLedgerLimit: records beyond the limit are dropped (oldest retained)
// but still aggregated into the metrics.
func TestLedgerLimit(t *testing.T) {
	r := New(4)
	for i := 0; i < 10; i++ {
		r.EpochClosed(EpochRecord{Delay: sim.Nanosecond})
	}
	if got := len(r.Ledger()); got != 4 {
		t.Errorf("ledger retained %d, want 4", got)
	}
	if got := r.Dropped(); got != 6 {
		t.Errorf("Dropped = %d, want 6", got)
	}
	if got := r.Registry().Counter("quartz.epochs.closed").Value(); got != 10 {
		t.Errorf("metrics saw %d epochs, want 10 (drops must not lose metrics)", got)
	}
}

// TestJobDoneMetrics covers the runner-facing aggregation.
func TestJobDoneMetrics(t *testing.T) {
	r := New(0)
	r.JobDone("ok", 10*time.Millisecond)
	r.JobDone("ok", 20*time.Millisecond)
	r.JobDone("failed", 5*time.Millisecond)
	reg := r.Registry()
	if got := reg.Counter("runner.jobs.ok").Value(); got != 2 {
		t.Errorf("jobs.ok = %d, want 2", got)
	}
	if got := reg.Counter("runner.jobs.failed").Value(); got != 1 {
		t.Errorf("jobs.failed = %d, want 1", got)
	}
	h := reg.Histogram("runner.job_wall_ms").Snapshot()
	if h.Count != 3 || h.Sum != 35 {
		t.Errorf("job_wall_ms count=%d sum=%d, want 3/35", h.Count, h.Sum)
	}
}

// TestThrottleProgrammedMetrics: each throttle-register write counts on its
// own path's counter, the one /metrics and quartztop read.
func TestThrottleProgrammedMetrics(t *testing.T) {
	r := New(0)
	r.ThrottleProgrammed("read")
	r.ThrottleProgrammed("write")
	r.ThrottleProgrammed("write")
	reg := r.Registry()
	if got := reg.Counter("mem.throttle.programmed.read").Value(); got != 1 {
		t.Errorf("throttle.programmed.read = %d, want 1", got)
	}
	if got := reg.Counter("mem.throttle.programmed.write").Value(); got != 2 {
		t.Errorf("throttle.programmed.write = %d, want 2", got)
	}
}
