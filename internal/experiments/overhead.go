package experiments

import (
	"fmt"

	"github.com/quartz-emu/quartz/internal/bench"
	"github.com/quartz-emu/quartz/internal/core"
	"github.com/quartz-emu/quartz/internal/machine"
	"github.com/quartz-emu/quartz/internal/obs"
	"github.com/quartz-emu/quartz/internal/perf"
	"github.com/quartz-emu/quartz/internal/sim"
	"github.com/quartz-emu/quartz/internal/stats"
)

// overheadModes are the two measured executions of the §3.2 switched-off
// overhead comparison.
var overheadModes = []struct {
	name string
	mode bench.Mode
}{
	{"native", bench.Native},
	{"switched-off", bench.Emulated},
}

// overheadJobs decomposes the §3.2 overhead accounting into one job per
// measured execution (the static cycle-cost rows come from constants and
// need no job).
func overheadJobs(s Scale, rec *obs.Recorder) JobSet {
	js := JobSet{ID: "overhead"}
	for _, m := range overheadModes {
		var q core.Config
		if m.mode == bench.Emulated {
			q = quartzConfig(800, rec)
			q.InjectionOff = true
		}
		js.Jobs = append(js.Jobs, Job{
			Name:   m.name,
			Params: map[string]string{"mode": m.name},
			Run: func() (Metrics, error) {
				cts := make([]sim.Time, s.Trials)
				err := runUnits(s.Trials, func(trial int) error {
					res, err := runMemLat(bench.EnvConfig{
						Preset: machine.XeonE5_2660v2, Mode: m.mode, Quartz: q,
					}, bench.MemLatConfig{
						Lines: s.Lines, Chains: 1, Iters: s.MemLatIters, Seed: int64(trial + 9),
					})
					if err != nil {
						return trialErr("overhead", trial, err)
					}
					cts[trial] = res.CT
					return nil
				})
				if err != nil {
					return nil, err
				}
				return Metrics{"ct_ns": stats.Summarize(nanos(cts)).Mean}, nil
			},
		})
	}
	js.Assemble = func(points []Metrics) (Table, error) {
		t := Table{
			ID:     "overhead",
			Title:  "Emulator overhead accounting (§3.2)",
			Header: []string{"Quantity", "Measured", "Paper"},
		}
		t.Rows = append(t.Rows,
			[]string{"library initialization", fmt.Sprintf("%d cycles", core.DefaultInitCycles), "~5.5e9 cycles (2.5s at 2.2GHz)"},
			[]string{"thread registration", fmt.Sprintf("%d cycles", core.DefaultRegisterCycles), "~300,000 cycles"},
			[]string{"epoch cost (rdpmc, 4 ctrs)", fmt.Sprintf("%d cycles", perf.ReadCostCycles(perf.RDPMC, 4)+core.DefaultEpochLogicCycles), "~4,000 cycles"},
			[]string{"epoch cost (PAPI, 4 ctrs)", fmt.Sprintf("%d cycles", perf.ReadCostCycles(perf.PAPI, 4)+core.DefaultEpochLogicCycles), "~30,000 cycles"},
		)
		native := sim.FromNanos(points[0]["ct_ns"])
		switched := sim.FromNanos(points[1]["ct_ns"])
		t.Rows = append(t.Rows, []string{
			"epoch-creation overhead (switched-off injection)",
			pct(stats.SignedErr(float64(switched), float64(native))),
			"<4% for tuned epochs",
		})
		return t, nil
	}
	return js
}

// epochSizeMaxEpochs are the maximum-epoch settings of footnote 4.
var epochSizeMaxEpochs = []sim.Time{sim.Millisecond, 10 * sim.Millisecond, 100 * sim.Millisecond}

// epochSizeTarget is the emulated latency of the footnote 4 study.
const epochSizeTarget = 500.0

// epochSizeJobs decomposes the footnote 4 study into one job per maximum
// epoch setting.
func epochSizeJobs(s Scale, rec *obs.Recorder) JobSet {
	js := JobSet{ID: "epoch-size"}
	for _, maxEpoch := range epochSizeMaxEpochs {
		js.Jobs = append(js.Jobs, Job{
			Name:   "max-epoch=" + maxEpoch.String(),
			Params: map[string]string{"max_epoch": maxEpoch.String()},
			Run: func() (Metrics, error) {
				lats := make([]sim.Time, s.Trials)
				err := runUnits(s.Trials, func(trial int) error {
					q := quartzConfig(epochSizeTarget, rec)
					q.MaxEpoch = maxEpoch
					q.MonitorInterval = maxEpoch / 2
					res, err := runMemLatNoFinalClose(bench.EnvConfig{
						Preset: machine.XeonE5_2660v2, Mode: bench.Emulated, Quartz: q,
					}, bench.MemLatConfig{
						Lines: s.Lines, Chains: 1, Iters: s.MemLatIters, Seed: int64(trial + 3),
					})
					if err != nil {
						return trialErr("epoch-size", trial, err)
					}
					lats[trial] = res.PerIteration
					return nil
				})
				if err != nil {
					return nil, err
				}
				return Metrics{"mean_ns": stats.Summarize(nanos(lats)).Mean}, nil
			},
		})
	}
	js.Assemble = func(points []Metrics) (Table, error) {
		t := Table{
			ID:     "epoch-size",
			Title:  "MemLat accuracy vs maximum epoch size (footnote 4, Ivy Bridge)",
			Header: []string{"Max epoch", "Target ns", "Measured ns", "Error"},
		}
		for i, maxEpoch := range epochSizeMaxEpochs {
			mean := points[i]["mean_ns"]
			t.Rows = append(t.Rows, []string{
				maxEpoch.String(), f1(epochSizeTarget), f1(mean), pct(stats.RelErr(mean, epochSizeTarget)),
			})
		}
		t.Notes = append(t.Notes,
			"accuracy degrades with very large epochs (delay lands after the measurement window); 1-10ms are accurate",
			"the run is measured as an application would measure itself, without flushing the final epoch")
		return t, nil
	}
	return js
}

// runMemLatNoFinalClose is runMemLat without the final CloseEpoch: it
// measures the way an uninstrumented application would, which is exactly
// what makes oversized epochs inaccurate.
func runMemLatNoFinalClose(envCfg bench.EnvConfig, mlCfg bench.MemLatConfig) (bench.MemLatResult, error) {
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
	err = env.Run(func(e *bench.Env, th *simosThread) {
		res = ml.Run(th)
	})
	return res, err
}
