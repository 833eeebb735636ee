package obs

import (
	"testing"

	"github.com/quartz-emu/quartz/internal/sim"
)

var benchRecord = EpochRecord{
	TID: 1, Thread: "bench",
	Start: 0, End: sim.Millisecond,
	Reason:      "max",
	StallCycles: 12345, L3Hit: 100, L3MissLocal: 900,
	LDMStallCycles: 11000,
	Stores:         4000, StoreMissLocal: 700,
	WriteDelay: 30 * sim.Microsecond,
	Delay:      100 * sim.Microsecond,
	Injected:   90 * sim.Microsecond,
	Overhead:   sim.Microsecond,
}

// BenchmarkEpochClosedNil measures the fully disabled observability path —
// the per-epoch cost every emulation pays when no recorder is installed.
// It must stay at one branch (sub-nanosecond, zero allocations).
func BenchmarkEpochClosedNil(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.EpochClosed(benchRecord)
	}
}

// BenchmarkEpochClosedActive measures the enabled path (ledger append +
// metric folds) for comparison.
func BenchmarkEpochClosedActive(b *testing.B) {
	r := New(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.EpochClosed(benchRecord)
	}
}

// BenchmarkEpochClosedStreaming measures the sink-attached path: tail-ring
// append + event check + JSONL encode to the sink. It is zero-alloc at
// steady state (TestLedgerAppendNoAllocs is the hard gate).
func BenchmarkEpochClosedStreaming(b *testing.B) {
	r := New(0)
	if err := r.AttachSink(NewWriterSink(discard{}, FormatJSONL), DefaultTailRing); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.EpochClosed(benchRecord)
	}
	if err := r.CloseSink(); err != nil {
		b.Fatal(err)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkSuppressedAndWaitNil covers the other hot nil-path call sites
// (epoch suppression check, contended-lock accounting).
func BenchmarkSuppressedAndWaitNil(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.EpochSuppressed("sync")
		r.ContendedWait()
	}
}

// TestDisabledPathOverheadBudget is the ISSUE's "<2% overhead" guard in an
// absolute, machine-independent form: the nil-recorder epoch hooks must cost
// on the order of a branch (we allow 50ns/op for slow CI machines — real
// cost is <1ns). Epochs close at millisecond granularity, so 50ns/epoch is
// under 0.01% of emulated work, far inside the 2% budget.
func TestDisabledPathOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation dominates the measured path")
	}
	var r *Recorder
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.EpochClosed(benchRecord)
			r.EpochSuppressed("sync")
			r.ContendedWait()
		}
	})
	if res.AllocsPerOp() != 0 {
		t.Errorf("disabled path allocates: %d allocs/op", res.AllocsPerOp())
	}
	if perOp := res.NsPerOp(); perOp > 50 {
		t.Errorf("disabled observability path costs %dns/op, budget 50ns", perOp)
	}
}
