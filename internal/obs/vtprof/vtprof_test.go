package vtprof

import (
	"bytes"
	"strings"
	"testing"

	"github.com/quartz-emu/quartz/internal/sim"
)

// snapshotOf folds s at now and returns the profiler's canonical snapshot.
func snapshotOf(p *Profiler, s *ThreadSeries, now sim.Time) *Profile {
	s.Fold(now)
	return p.Snapshot()
}

// TestChargeWatermark: each charge attributes the whole interval since the
// previous charge to the given category.
func TestChargeWatermark(t *testing.T) {
	p := New()
	s := p.NewThread("w", 0)
	s.Charge(Compute, 10*sim.Nanosecond)
	s.Charge(MemStall, 25*sim.Nanosecond)
	s.Charge(SyncWait, 25*sim.Nanosecond) // zero-length interval
	prof := snapshotOf(p, s, 25*sim.Nanosecond)
	tot := prof.Totals()
	if tot[Compute] != 10 || tot[MemStall] != 15 || tot[SyncWait] != 0 {
		t.Errorf("totals = %v, want compute=10 mem_stall=15 sync_wait=0", tot)
	}
	if prof.TotalNS() != 25 {
		t.Errorf("TotalNS = %d, want 25", prof.TotalNS())
	}
}

// TestChargeCarry: sub-nanosecond femtosecond residues carry between charges
// so the charged total is exactly floor(lifetime / 1ns), never more.
func TestChargeCarry(t *testing.T) {
	p := New()
	s := p.NewThread("w", 0)
	step := 6 * sim.Nanosecond / 10 // 0.6 ns
	now := sim.Time(0)
	for i := 0; i < 5; i++ { // 3.0 ns total
		now += step
		s.Charge(Compute, now)
	}
	prof := snapshotOf(p, s, now)
	if got := prof.TotalNS(); got != int64(now/sim.Nanosecond) {
		t.Errorf("charged %d ns over a %v lifetime, want %d", got, now, int64(now/sim.Nanosecond))
	}
}

// TestChargeBackwardClock: a clock that does not advance (or an interval
// computed as negative) charges nothing and does not corrupt the watermark.
func TestChargeBackwardClock(t *testing.T) {
	p := New()
	s := p.NewThread("w", 10*sim.Nanosecond)
	s.Charge(Compute, 5*sim.Nanosecond) // behind the watermark
	s.Charge(Compute, 12*sim.Nanosecond)
	prof := snapshotOf(p, s, 12*sim.Nanosecond)
	if got := prof.Totals()[Compute]; got != 7 {
		t.Errorf("compute = %d, want 7 (5 backward + 7 forward)", got)
	}
}

// TestPushPopStacks: charges land on the phase stack in effect at charge
// time; the folded profile carries thread-rooted stacks.
func TestPushPopStacks(t *testing.T) {
	load := Intern("t.load")
	serve := Intern("t.serve")
	p := New()
	s := p.NewThread("w0", 0)
	s.Push(load)
	s.Charge(Compute, 5*sim.Nanosecond)
	s.Pop()
	s.Push(serve)
	s.Push(load) // nested re-use of the same phase name
	s.Charge(MemStall, 9*sim.Nanosecond)
	s.Pop()
	s.Charge(Compute, 10*sim.Nanosecond)
	s.Pop()
	prof := snapshotOf(p, s, 10*sim.Nanosecond)

	want := map[string][NumCategories]int64{
		"w0" + keySep + "t.load":                      {Compute: 5},
		"w0" + keySep + "t.serve" + keySep + "t.load": {MemStall: 9 - 5},
		"w0" + keySep + "t.serve":                     {Compute: 10 - 9},
	}
	for _, smp := range prof.Samples {
		k := strings.Join(smp.Stack, keySep)
		if w, ok := want[k]; ok {
			if smp.Values != w {
				t.Errorf("stack %q values = %v, want %v", k, smp.Values, w)
			}
			delete(want, k)
		}
	}
	for k := range want {
		t.Errorf("missing sample for stack %q", k)
	}
}

// TestDepthOverflow: pushes past MaxDepth are dropped but counted, so the
// matching pops unwind back to exactly the right frame.
func TestDepthOverflow(t *testing.T) {
	deep := Intern("t.deep")
	leaf := Intern("t.leaf")
	p := New()
	s := p.NewThread("w", 0)
	for i := 0; i < MaxDepth+3; i++ {
		s.Push(deep)
	}
	s.Charge(Compute, 4*sim.Nanosecond) // charges at depth MaxDepth
	for i := 0; i < MaxDepth+3; i++ {
		s.Pop()
	}
	// Back at the root: a fresh push must start at depth 1.
	s.Push(leaf)
	s.Charge(MemStall, 6*sim.Nanosecond)
	s.Pop()
	prof := snapshotOf(p, s, 6*sim.Nanosecond)

	for _, smp := range prof.Samples {
		switch {
		case smp.Values[Compute] == 4:
			if len(smp.Stack) != 1+MaxDepth {
				t.Errorf("overflow charge at depth %d, want %d", len(smp.Stack)-1, MaxDepth)
			}
		case smp.Values[MemStall] == 2:
			if len(smp.Stack) != 2 || smp.Stack[1] != "t.leaf" {
				t.Errorf("post-overflow stack = %v, want [w t.leaf]", smp.Stack)
			}
		}
	}
	if got := prof.TotalNS(); got != 6 {
		t.Errorf("TotalNS = %d, want 6", got)
	}
}

// TestUnmatchedPop: pops at the root are ignored, not a crash or underflow.
func TestUnmatchedPop(t *testing.T) {
	p := New()
	s := p.NewThread("w", 0)
	s.Pop()
	s.Pop()
	s.Push(Intern("t.only"))
	s.Charge(Compute, sim.Nanosecond)
	s.Pop()
	s.Pop()
	prof := snapshotOf(p, s, sim.Nanosecond)
	if prof.TotalNS() != 1 {
		t.Errorf("TotalNS = %d, want 1", prof.TotalNS())
	}
}

// TestChargeInjected: the injected nanoseconds split between the write and
// read categories by the writeDelay/totalDelay ratio, and the interval's
// remainder (spin overshoot) goes to SchedWait.
func TestChargeInjected(t *testing.T) {
	p := New()
	s := p.NewThread("w", 0)
	// 100 ns interval, 60 ns injected, write:total delay ratio 1:3.
	s.ChargeInjected(100*sim.Nanosecond, 60*sim.Nanosecond, 10*sim.Nanosecond, 30*sim.Nanosecond)
	prof := snapshotOf(p, s, 100*sim.Nanosecond)
	tot := prof.Totals()
	if tot[InjectWrite] != 20 || tot[InjectRead] != 40 || tot[SchedWait] != 40 {
		t.Errorf("totals = %v, want inject_write=20 inject_read=40 sched_wait=40", tot)
	}
	if got := tot[InjectRead] + tot[InjectWrite]; got != 60 {
		t.Errorf("injected total = %d, want 60", got)
	}
}

// TestChargeInjectedClamped: injected time beyond the elapsed interval clamps
// to the interval (the defensive unreachable branch), and a zero totalDelay
// sends everything to the read term.
func TestChargeInjectedClamped(t *testing.T) {
	p := New()
	s := p.NewThread("w", 0)
	s.ChargeInjected(10*sim.Nanosecond, 50*sim.Nanosecond, 0, 0)
	prof := snapshotOf(p, s, 10*sim.Nanosecond)
	tot := prof.Totals()
	if tot[InjectRead] != 10 || tot[InjectWrite] != 0 || tot[SchedWait] != 0 {
		t.Errorf("totals = %v, want inject_read=10 only", tot)
	}
}

// TestFoldIdempotent: double-folding (thread exit + defensive kernel sweep)
// must not double-count.
func TestFoldIdempotent(t *testing.T) {
	p := New()
	s := p.NewThread("w", 0)
	s.Charge(Compute, 8*sim.Nanosecond)
	s.Fold(10 * sim.Nanosecond) // residue 2 ns → SchedWait
	s.Fold(10 * sim.Nanosecond)
	prof := p.Snapshot()
	tot := prof.Totals()
	if tot[Compute] != 8 || tot[SchedWait] != 2 {
		t.Errorf("totals = %v, want compute=8 sched_wait=2", tot)
	}
	if prof.TotalNS() != 10 {
		t.Errorf("TotalNS = %d, want 10 after double fold", prof.TotalNS())
	}
}

// TestFoldMergesThreadsByName: two series with the same thread name fold into
// one sample row (paired units sharing a job profiler).
func TestFoldMergesThreadsByName(t *testing.T) {
	p := New()
	a := p.NewThread("w", 0)
	a.Charge(Compute, 3*sim.Nanosecond)
	a.Fold(3 * sim.Nanosecond)
	b := p.NewThread("w", 0)
	b.Charge(Compute, 4*sim.Nanosecond)
	b.Fold(4 * sim.Nanosecond)
	prof := p.Snapshot()
	if len(prof.Samples) != 1 {
		t.Fatalf("samples = %d, want 1 merged row", len(prof.Samples))
	}
	if prof.Samples[0].Values[Compute] != 7 {
		t.Errorf("compute = %d, want 7", prof.Samples[0].Values[Compute])
	}
}

// TestNilInert: nil profiler, series and suite are cheap no-ops end to end.
func TestNilInert(t *testing.T) {
	var p *Profiler
	s := p.NewThread("w", 0)
	if s != nil {
		t.Fatal("nil profiler handed out a series")
	}
	s.Fold(sim.Nanosecond) // nil receiver must not panic
	if prof := p.Snapshot(); len(prof.Samples) != 0 {
		t.Errorf("nil profiler snapshot has %d samples", len(prof.Samples))
	}
	var su *Suite
	if su.Job("x") != nil {
		t.Error("nil suite handed out a profiler")
	}
	if su.Jobs() != nil {
		t.Error("nil suite lists jobs")
	}
	if got := su.Merged(); len(got.Samples) != 0 {
		t.Error("nil suite merged non-empty")
	}
}

// TestMergeCommutative: merging profiles in any order produces byte-identical
// pprof output — the determinism contract behind -parallel layouts.
func TestMergeCommutative(t *testing.T) {
	mk := func(thread string, c Category, ns int64) *Profile {
		p := New()
		s := p.NewThread(thread, 0)
		s.Charge(c, sim.Time(ns)*sim.Nanosecond)
		s.Fold(sim.Time(ns) * sim.Nanosecond)
		return p.Snapshot()
	}
	a := mk("w0", Compute, 5)
	b := mk("w1", MemStall, 7)
	c := mk("w0", InjectRead, 3)

	ab, err := Merge(a, b, c).PprofBytes()
	if err != nil {
		t.Fatal(err)
	}
	ba, err := Merge(c, b, a).PprofBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, ba) {
		t.Error("merge order changed the encoded profile bytes")
	}
	tot := Merge(a, b, c).Totals()
	if tot[Compute] != 5 || tot[MemStall] != 7 || tot[InjectRead] != 3 {
		t.Errorf("merged totals = %v", tot)
	}
}

// TestPprofBytesDeterministic: encoding the same profile twice is
// byte-identical (no timestamps, no map-order leakage).
func TestPprofBytesDeterministic(t *testing.T) {
	p := New()
	s := p.NewThread("w", 0)
	s.Push(Intern("t.phase"))
	s.Charge(Compute, 5*sim.Nanosecond)
	s.Pop()
	s.Fold(5 * sim.Nanosecond)
	prof := p.Snapshot()
	a, err := prof.PprofBytes()
	if err != nil {
		t.Fatal(err)
	}
	b, err := prof.PprofBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("re-encoding the same profile changed its bytes")
	}
}

// TestWriteFoldedGolden pins the folded-stacks exporter output.
func TestWriteFoldedGolden(t *testing.T) {
	phase := Intern("t.golden")
	p := New()
	s := p.NewThread("w0", 0)
	s.Push(phase)
	s.Charge(Compute, 5*sim.Nanosecond)
	s.Charge(MemStall, 9*sim.Nanosecond)
	s.Pop()
	s.Fold(9 * sim.Nanosecond)

	var buf bytes.Buffer
	if err := p.Snapshot().WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	want := "w0;t.golden;compute 5\nw0;t.golden;mem_stall 4\n"
	if got := buf.String(); got != want {
		t.Errorf("folded output:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestSuiteJobsAndMerged: job profilers are created on demand, listed sorted,
// and the suite merge sums across jobs.
func TestSuiteJobsAndMerged(t *testing.T) {
	su := NewSuite()
	for _, name := range []string{"b/j1", "a/j0"} {
		p := su.Job(name)
		if p == nil {
			t.Fatalf("Job(%q) = nil", name)
		}
		if su.Job(name) != p {
			t.Errorf("Job(%q) not stable across calls", name)
		}
		s := p.NewThread("w", 0)
		s.Charge(Compute, 2*sim.Nanosecond)
		s.Fold(2 * sim.Nanosecond)
	}
	jobs := su.Jobs()
	if len(jobs) != 2 || jobs[0] != "a/j0" || jobs[1] != "b/j1" {
		t.Errorf("Jobs() = %v, want sorted [a/j0 b/j1]", jobs)
	}
	if got := su.Merged().Totals()[Compute]; got != 4 {
		t.Errorf("merged compute = %d, want 4", got)
	}
	if got := su.JobProfile("a/j0").Totals()[Compute]; got != 2 {
		t.Errorf("job profile compute = %d, want 2", got)
	}
	if got := su.JobProfile("missing"); len(got.Samples) != 0 {
		t.Error("unknown job profile non-empty")
	}
}

// TestInternStable: interning the same name twice returns the same ID, and
// the ID resolves back to the name.
func TestInternStable(t *testing.T) {
	a := Intern("t.stable")
	b := Intern("t.stable")
	if a != b {
		t.Errorf("Intern not stable: %d vs %d", a, b)
	}
	if a.Name() != "t.stable" {
		t.Errorf("Name() = %q", a.Name())
	}
	if Phase(-1).Name() != "?" {
		t.Errorf("out-of-range phase name = %q", Phase(-1).Name())
	}
}

// TestChargeNoAllocs: the steady-state charge path — phase push/pop over an
// already-built tree plus watermark charges — is allocation-free. This is the
// vtprof-on half of the bench-alloc gate; the off half is a nil-series
// pointer test in internal/simos and allocates trivially nothing.
func TestChargeNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	p1 := Intern("t.alloc.outer")
	p2 := Intern("t.alloc.inner")
	p := New()
	s := p.NewThread("w", 0)
	// First pass faults in the tree nodes; afterwards re-entry must not
	// allocate.
	s.Push(p1)
	s.Push(p2)
	s.Pop()
	s.Pop()
	now := sim.Time(0)
	avg := testing.AllocsPerRun(1000, func() {
		now += 3 * sim.Nanosecond / 2
		s.Push(p1)
		s.Charge(Compute, now)
		s.Push(p2)
		now += sim.Nanosecond
		s.Charge(MemStall, now)
		s.Pop()
		s.Pop()
		now += 2 * sim.Nanosecond
		s.ChargeInjected(now, sim.Nanosecond, 0, 0)
	})
	if avg != 0 {
		t.Errorf("steady-state charge path allocates %.1f/op, want 0", avg)
	}
}
