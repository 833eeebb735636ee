package cpu

import (
	"testing"

	"github.com/quartz-emu/quartz/internal/perf"
	"github.com/quartz-emu/quartz/internal/sim"
)

// countersEqual compares the Table 1 counter state of two cores.
func countersEqual(t *testing.T, a, b *perf.Counters) {
	t.Helper()
	if a.TrueStallCycles() != b.TrueStallCycles() {
		t.Errorf("stall cycles diverged: %g vs %g", a.TrueStallCycles(), b.TrueStallCycles())
	}
	for _, e := range []perf.Event{perf.EventStallsL2Pending, perf.EventL3Hit, perf.EventL3MissLocal, perf.EventL3MissRemote} {
		va, erra := a.Read(e)
		vb, errb := b.Read(e)
		if (erra == nil) != (errb == nil) || va != vb {
			t.Errorf("counter %v diverged: %d (%v) vs %d (%v)", e, va, erra, vb, errb)
		}
	}
}

// TestLoadGroupRunEquivalentToLoadGroup checks the slice-free group variant
// against LoadGroup over the same arithmetic sequence, including runs larger
// than the MSHR bound (multiple waves).
func TestLoadGroupRunEquivalentToLoadGroup(t *testing.T) {
	group, _ := testCore(t, 4)
	run, _ := testCore(t, 4)
	nowGroup, nowRun := sim.Time(0), sim.Time(0)
	for iter := 0; iter < 100; iter++ {
		base := uintptr(iter) * 8192
		for _, n := range []int{1, 7, 10, 25} { // below, at and above MSHRs
			addrs := make([]uintptr, n)
			for i := range addrs {
				addrs[i] = base + uintptr(i)*64
			}
			nowGroup += group.LoadGroup(nowGroup, addrs)
			nowRun += run.LoadGroupRun(nowRun, base, 64, n)
			base += uintptr(n) * 64
			if nowGroup != nowRun {
				t.Fatalf("iter %d n=%d: virtual time diverged: group %v, run %v", iter, n, nowGroup, nowRun)
			}
		}
	}
	countersEqual(t, group.Counters(), run.Counters())
	if group.L1().Stats() != run.L1().Stats() {
		t.Error("L1 statistics diverged between LoadGroup and LoadGroupRun")
	}
}

// BenchmarkCoreLoad measures the per-access cost of the demand-load path on
// an L1-resident working set — the simulator's hottest operation.
func BenchmarkCoreLoad(b *testing.B) {
	core, _ := testCore(b, 0)
	now := sim.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lat, _ := core.Load(now, uintptr(i%64)*64)
		now += lat
	}
}

// BenchmarkCoreLoadStream measures the streaming-miss path (prefetcher and
// memory system engaged).
func BenchmarkCoreLoadStream(b *testing.B) {
	core, _ := testCore(b, 4)
	now := sim.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lat, _ := core.Load(now, uintptr(i)*64)
		now += lat
	}
}
