package experiments

import (
	"fmt"

	"github.com/quartz-emu/quartz/internal/bench"
	"github.com/quartz-emu/quartz/internal/core"
	"github.com/quartz-emu/quartz/internal/machine"
	"github.com/quartz-emu/quartz/internal/obs"
	"github.com/quartz-emu/quartz/internal/obs/vtprof"
	"github.com/quartz-emu/quartz/internal/sim"
	"github.com/quartz-emu/quartz/internal/simos"
)

// quartzConfig is the baseline emulator configuration experiments use: the
// paper's 10 ms maximum epoch with a small minimum epoch, and the library
// init cost suppressed (experiments time the workload region, and the init
// cost is measured separately by the overhead experiment), reporting to rec.
func quartzConfig(nvmNS float64, rec *obs.Recorder) core.Config {
	return core.Config{
		NVMLatency: sim.FromNanos(nvmNS),
		MaxEpoch:   2 * sim.Millisecond,
		MinEpoch:   10 * sim.Microsecond,
		InitCycles: 1,
		Observer:   rec,
	}
}

// profiler resolves the vtprof profiler for job jobName of set setID — the
// "setID/jobName" key matches the runner's job IDs, so -vtprof output files
// line up with -progress and result-sink job identities. A nil Profiles
// suite yields a nil (inert) profiler.
func (s Scale) profiler(setID, jobName string) *vtprof.Profiler {
	return s.Profiles.Job(setID + "/" + jobName)
}

// runMemLat builds and runs one MemLat trial in a fresh environment,
// reporting the chase's completion time and per-iteration latency with any
// trailing epoch delay flushed into the window.
func runMemLat(envCfg bench.EnvConfig, mlCfg bench.MemLatConfig) (bench.MemLatResult, error) {
	env, err := bench.NewEnv(envCfg)
	if err != nil {
		return bench.MemLatResult{}, err
	}
	mlCfg.Node = env.AllocNode()
	ml, err := bench.BuildMemLat(env.Proc, mlCfg)
	if err != nil {
		return bench.MemLatResult{}, err
	}
	var res bench.MemLatResult
	err = env.Run(func(e *bench.Env, th *simos.Thread) {
		start := th.Now()
		r := ml.Run(th)
		e.CloseEpoch(th)
		ct := th.Now() - start
		r.CT = ct
		r.PerIteration = ct / sim.Time(mlCfg.Iters)
		res = r
	})
	return res, err
}

// simosThread shortens closure signatures in the sweep code.
type simosThread = simos.Thread

// appMachine returns the preset configuration with the last-level cache
// scaled to l3Bytes. The paper's application working sets (a 4.8M-vertex web
// graph, a GB-scale key-value store) dwarf the 20-25 MiB L3s of the
// testbeds; at tractable simulation sizes each application's
// working-set-to-cache geometry is preserved by scaling the cache with the
// workload:
//
//   - the KV store keeps its hot tree levels cache-resident (as MassTree's
//     cache-crafted upper levels are on a 20 MiB L3) while values miss, so
//     it gets a 2 MiB L3 against a ~32 MiB value arena;
//   - PageRank's rank vectors must exceed the cache (4.8M-vertex vectors
//     dwarf 20 MiB), so it gets a 256 KiB L3 against ~800 KiB vectors.
//
// Channel bandwidth is scaled up in proportion to the increased per-op
// traffic so the scaled testbeds stay latency-bound, not channel-saturated.
// Validation experiments compare Conf_1 against Conf_2 on the same scaled
// machine, so the comparison stays apples-to-apples.
func appMachine(p machine.Preset, l3Bytes int) *machine.Config {
	cfg := machine.PresetConfig(p)
	cfg.L3.SizeBytes = l3Bytes
	cfg.L3.Ways = 16
	cfg.Mem.ChannelBandwidth *= 4
	return &cfg
}

// Cache scalings per application (see appMachine).
const (
	kvL3Bytes = 2 << 20
	prL3Bytes = 256 << 10
)

// presetRows iterates the three testbeds with their short labels.
type presetRow struct {
	preset machine.Preset
	label  string
}

func presetRows() []presetRow {
	return []presetRow{
		{machine.XeonE5_2450, "Sandy Bridge"},
		{machine.XeonE5_2660v2, "Ivy Bridge"},
		{machine.XeonE5_2650v3, "Haswell"},
	}
}

// nanos converts a slice of sim.Time to float64 nanoseconds.
func nanos(ts []sim.Time) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = t.Nanoseconds()
	}
	return out
}

// trialErr wraps an experiment trial failure with context.
func trialErr(what string, trial int, err error) error {
	return fmt.Errorf("experiments: %s trial %d: %w", what, trial, err)
}

// runUnits executes body(0..n-1) in order — a job's independent units:
// repeated trials, or the paired/variant simulations of one sweep point. Each
// unit builds its own environment, seeds its own simulation, and writes
// results only to its own position-indexed slots, so assembly reads the slots
// in index order with a fixed floating-point reduction order. It returns the
// first error.
//
// It stays out of line: inlined, it pulls every unit closure into its job
// function, which un-inlines small sim/simos helpers into copies linked ahead
// of internal/cache and shifts the cache walk's hot code off its 64-byte
// alignment (+13% host CPU on the quartzperf paper-quick workload, measured
// on a 2-vCPU Intel Xeon VM).
//
//go:noinline
func runUnits(n int, body func(unit int) error) error {
	for u := 0; u < n; u++ {
		if err := body(u); err != nil {
			return err
		}
	}
	return nil
}
