package workload

import (
	"testing"

	"github.com/quartz-emu/quartz/internal/obs"
	"github.com/quartz-emu/quartz/internal/sim"
)

// TestMeasuredOpPathNoAllocs is the allocation gate for the engine's
// steady-state per-op work: picking the next-due client (heap and FIFO),
// advancing its generator, and recording the measured latency locally. All
// of it runs on preallocated flat state, so a scenario's measurement window
// produces zero garbage regardless of client count — that is what lets
// traffic-mega sweep to a million clients without GC pressure.
func TestMeasuredOpPathNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	const n = 4096
	due := make([]sim.Time, n)
	for i := range due {
		due[i] = sim.Time(i)
	}
	h := heap4{idx: make([]int32, 0, n), due: due}
	h.resetAll(n)
	if allocs := testing.AllocsPerRun(100, func() {
		i := h.min()
		h.due[i] += 1000
		h.fixMin()
	}); allocs != 0 {
		t.Errorf("heap pick+fix: %v allocs/op, want 0", allocs)
	}

	var f fifoRing
	f.buf = make([]int32, n)
	f.reset(n)
	if allocs := testing.AllocsPerRun(100, func() {
		f.push(f.pop())
	}); allocs != 0 {
		t.Errorf("fifo pop+push: %v allocs/op, want 0", allocs)
	}

	gen := NewLCG(ClientState(7, 0))
	// The engine holds cfg.Keys as a KeyDist interface built once at config
	// time; holding a concrete Uniform here would re-box it on every call.
	var keys KeyDist = Uniform{Keys: 1 << 16}
	zipf, err := NewZipfian(1<<16, 0.99, true)
	if err != nil {
		t.Fatal(err)
	}
	var sink Op
	if allocs := testing.AllocsPerRun(100, func() {
		sink = nextOp(&gen, keys, 950, 1000)
	}); allocs != 0 {
		t.Errorf("client advance (uniform): %v allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		sink = nextOp(&gen, zipf, 950, 1000)
	}); allocs != 0 {
		t.Errorf("client advance (zipfian): %v allocs/op, want 0", allocs)
	}
	_ = sink

	var lat obs.LocalHistogram
	var counts [NumOpKinds]int64
	v := int64(1)
	if allocs := testing.AllocsPerRun(100, func() {
		lat.Observe(v)
		counts[OpRead]++
		v += 997
	}); allocs != 0 {
		t.Errorf("record: %v allocs/op, want 0", allocs)
	}
	var dst, reg obs.Histogram
	if allocs := testing.AllocsPerRun(100, func() {
		lat.Observe(v)
		v += 997
		lat.FlushInto(&dst, &reg)
	}); allocs != 0 {
		t.Errorf("flush: %v allocs/op, want 0", allocs)
	}
}

// BenchmarkWorkloadPickNext measures one serve step of each picker — the
// work the engine does to choose which client runs next — at a large owned
// count (the per-worker share of a million-client scenario).
func BenchmarkWorkloadPickNext(b *testing.B) {
	const n = 65536
	b.Run("heap", func(b *testing.B) {
		due := make([]sim.Time, n)
		for i := range due {
			due[i] = sim.Time(i * 13)
		}
		h := heap4{idx: make([]int32, 0, n), due: due}
		h.resetAll(n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := h.min()
			h.due[j] += 100_000
			h.fixMin()
		}
	})
	b.Run("fifo", func(b *testing.B) {
		var f fifoRing
		f.buf = make([]int32, n)
		f.reset(n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.push(f.pop())
		}
	})
	b.Run("linear", func(b *testing.B) {
		due := make([]sim.Time, n)
		for i := range due {
			due[i] = sim.Time(i * 13)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			best := int32(0)
			bd := due[0]
			for j := int32(1); j < n; j++ {
				if due[j] < bd {
					best, bd = j, due[j]
				}
			}
			due[best] = bd + 100_000
		}
	})
}

// BenchmarkWorkloadClientAdvance measures one generator step (key draw plus
// op-kind draw) against both key distributions.
func BenchmarkWorkloadClientAdvance(b *testing.B) {
	gen := NewLCG(ClientState(7, 0))
	var sink Op
	b.Run("uniform", func(b *testing.B) {
		var keys KeyDist = Uniform{Keys: 1 << 20}
		for i := 0; i < b.N; i++ {
			sink = nextOp(&gen, keys, 950, 1000)
		}
	})
	b.Run("zipfian", func(b *testing.B) {
		zipf, err := NewZipfian(1<<20, 0.99, true)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink = nextOp(&gen, zipf, 950, 1000)
		}
	})
	_ = sink
}

// BenchmarkWorkloadRecord measures recording one measured op into the
// worker-local histogram and tally (the per-op cost), and the periodic
// delta-flush into the shared result and registry histograms (paid once per
// flushEvery measured ops).
func BenchmarkWorkloadRecord(b *testing.B) {
	b.Run("observe", func(b *testing.B) {
		var lat obs.LocalHistogram
		var counts [NumOpKinds]int64
		v := int64(1)
		for i := 0; i < b.N; i++ {
			lat.Observe(v)
			counts[OpRead]++
			v += 997
		}
	})
	b.Run("flush", func(b *testing.B) {
		var lat obs.LocalHistogram
		var dst, reg obs.Histogram
		v := int64(1)
		for i := 0; i < b.N; i++ {
			lat.Observe(v)
			v += 997
			lat.FlushInto(&dst, &reg)
		}
	})
}
