package bench

import (
	"testing"

	"github.com/quartz-emu/quartz/internal/machine"
	"github.com/quartz-emu/quartz/internal/sim"
	"github.com/quartz-emu/quartz/internal/simos"
)

// TestEmulatedHotPathNoAllocs is the allocation gate for the emulator's
// steady-state hot paths, measured end to end inside a live emulated
// environment: a closed epoch (counter read, Eq. 2/3 delay, amortization,
// rdtscp spin injection) and the batched access runs must not produce
// garbage once the simulation has reached steady state. Setup paths (Attach,
// thread registration, first epochs growing kernel structures) may allocate;
// the steady state may not — that is what keeps long emulations flat.
func TestEmulatedHotPathNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	env, err := NewEnv(EnvConfig{Preset: machine.XeonE5_2450, Mode: Emulated, Quartz: quickQuartz(400)})
	if err != nil {
		t.Fatal(err)
	}
	const lines = 1 << 12
	base, err := env.Proc.MallocOnNode(lines*64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Run(func(e *Env, th *simos.Thread) {
		// Warm up: fault in kernel/scheduler capacity, arm prefetch streams,
		// accrue counter state, close a few epochs.
		for i := 0; i < 8; i++ {
			th.LoadRun(base, 64, lines)
			th.StoreRun(base, 64, lines)
			e.CloseEpoch(th)
		}

		if allocs := testing.AllocsPerRun(20, func() {
			th.LoadRun(base, 64, lines)
		}); allocs != 0 {
			t.Errorf("steady-state LoadRun: %v allocs/op, want 0", allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			th.StoreRun(base, 64, lines)
		}); allocs != 0 {
			t.Errorf("steady-state StoreRun: %v allocs/op, want 0", allocs)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			th.LoadRun(base, 64, 512) // accrue stall cycles so the close injects
			e.CloseEpoch(th)
		}); allocs != 0 {
			t.Errorf("steady-state epoch close: %v allocs/op, want 0", allocs)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestAsymStorePathNoAllocs extends the allocation gate to the asymmetric
// store model: with NVMWriteLatency set, every epoch close additionally
// reads the store counters, evaluates the write-stall term, and records the
// split delay — and the steady state must still produce zero garbage, both
// for the store+flush stream and for the close itself. This is what `make
// bench-alloc` holds the store-stall path to.
func TestAsymStorePathNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	q := quickQuartz(400)
	q.NVMWriteLatency = sim.FromNanos(700) // above DRAM, so the term injects
	env, err := NewEnv(EnvConfig{Preset: machine.XeonE5_2450, Mode: Emulated, Quartz: q})
	if err != nil {
		t.Fatal(err)
	}
	const lines = 1 << 12
	base, err := env.Proc.MallocOnNode(lines*64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Run(func(e *Env, th *simos.Thread) {
		for i := 0; i < 8; i++ {
			th.StoreRun(base, 64, lines)
			e.CloseEpoch(th)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			th.StoreRun(base, 64, lines)
		}); allocs != 0 {
			t.Errorf("steady-state StoreRun under the store model: %v allocs/op, want 0", allocs)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			th.StoreRun(base, 64, 512) // accrue store misses so the close injects Δw
			e.CloseEpoch(th)
		}); allocs != 0 {
			t.Errorf("steady-state asymmetric epoch close: %v allocs/op, want 0", allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			addr := base
			var fence sim.Time
			for i := 0; i < 64; i++ {
				th.Store(addr)
				if done := th.FlushOpt(addr); done > fence {
					fence = done
				}
				addr += 64
			}
			th.Fence(fence)
		}); allocs != 0 {
			t.Errorf("steady-state store+flushopt+fence batch: %v allocs/op, want 0", allocs)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestMemLatRunNoAllocs extends the allocation gate to the MemLat driver:
// once its chains are built and a run has warmed the simulation up, a
// whole Run, one chain or a LoadGroup over four, allocates nothing. The
// epoch is short enough that every Run spans several monitor-signalled
// epoch closes, so the signal path is held to zero as well.
func TestMemLatRunNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	const runs = 20
	q := quickQuartz(400)
	q.MinEpoch, q.MaxEpoch = 5*sim.Microsecond, 5*sim.Microsecond
	for _, chains := range []int{1, 4} {
		env, err := NewEnv(EnvConfig{Preset: machine.XeonE5_2450, Mode: Emulated, Quartz: q})
		if err != nil {
			t.Fatal(err)
		}
		ml, err := BuildMemLat(env.Proc, MemLatConfig{Lines: 1 << 12, Chains: chains, Iters: 1 << 12, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := env.Run(func(e *Env, th *simos.Thread) {
			for i := 0; i < 4; i++ {
				ml.Run(th)
			}
			before := e.Emu.Stats().MaxEpochs
			allocs := testing.AllocsPerRun(runs, func() {
				ml.Run(th)
			})
			if closes := e.Emu.Stats().MaxEpochs - before; closes < 2*runs {
				t.Errorf("%d chains: %d signalled epoch closes over %d runs, want at least %d", chains, closes, runs, 2*runs)
			}
			if allocs != 0 {
				t.Errorf("steady-state MemLat.Run, %d chains: %v allocs/op, want 0", chains, allocs)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkMemLatRun measures the MemLat driver on Conf_1 Sandy Bridge with
// the workload's 1<<20-line chains. One op is 1<<20 loads over a 64 MiB
// footprint, far beyond the 20 MiB L3, so the simulated caches miss as they
// do in the experiments; ns/load is the host cost per simulated load.
func BenchmarkMemLatRun(b *testing.B) {
	const lines = 1 << 20
	for _, bc := range []struct {
		name   string
		chains int
	}{{"1chain", 1}, {"4chains", 4}} {
		chains := bc.chains
		b.Run(bc.name, func(b *testing.B) {
			env, err := NewEnv(EnvConfig{
				Preset: machine.XeonE5_2450, Mode: Emulated,
				Quartz: quickQuartz(RemoteLatNS(machine.XeonE5_2450)),
			})
			if err != nil {
				b.Fatal(err)
			}
			ml, err := BuildMemLat(env.Proc, MemLatConfig{Lines: lines, Chains: chains, Iters: lines / chains, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			if err := env.Run(func(e *Env, th *simos.Thread) {
				ml.Run(th)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ml.Run(th)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lines), "ns/load")
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkEmulatedEpochClose measures one load batch plus an explicit epoch
// close under emulation — the per-epoch cost Quartz's lightweight claim
// rests on. Reported allocs/op must be 0 (TestEmulatedHotPathNoAllocs is
// the hard gate).
func BenchmarkEmulatedEpochClose(b *testing.B) {
	env, err := NewEnv(EnvConfig{Preset: machine.XeonE5_2450, Mode: Emulated, Quartz: quickQuartz(400)})
	if err != nil {
		b.Fatal(err)
	}
	const lines = 1 << 12
	base, err := env.Proc.MallocOnNode(lines*64, 0)
	if err != nil {
		b.Fatal(err)
	}
	if err := env.Run(func(e *Env, th *simos.Thread) {
		th.LoadRun(base, 64, lines)
		e.CloseEpoch(th)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			th.LoadRun(base, 64, 512)
			e.CloseEpoch(th)
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEmulatedLoadRun measures the batched strided-load path under
// emulation, per line.
func BenchmarkEmulatedLoadRun(b *testing.B) {
	env, err := NewEnv(EnvConfig{Preset: machine.XeonE5_2450, Mode: Emulated, Quartz: quickQuartz(400)})
	if err != nil {
		b.Fatal(err)
	}
	const lines = 1 << 12
	base, err := env.Proc.MallocOnNode(lines*64, 0)
	if err != nil {
		b.Fatal(err)
	}
	if err := env.Run(func(e *Env, th *simos.Thread) {
		th.LoadRun(base, 64, lines)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			th.LoadRun(base, 64, lines)
		}
	}); err != nil {
		b.Fatal(err)
	}
}
