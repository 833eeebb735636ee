package experiments

import (
	"fmt"

	"github.com/quartz-emu/quartz/internal/bench"
	"github.com/quartz-emu/quartz/internal/machine"
	"github.com/quartz-emu/quartz/internal/obs"
	"github.com/quartz-emu/quartz/internal/sim"
	"github.com/quartz-emu/quartz/internal/stats"
)

// fig14Pattern is one MultiLat access pattern (DRAM and NVM burst lengths).
type fig14Pattern struct {
	name string
	dram int
	nvm  int
}

// fig14Patterns are the MultiLat access patterns, scaled from the paper's
// Pattern-1..4 (200k:100k down to 200:100) to the simulated array sizes.
var fig14Patterns = []fig14Pattern{
	{"P1", 20000, 10000},
	{"P2", 2000, 1000},
	{"P3", 200, 100},
	{"P4", 20, 10},
}

// fig14Configs are the two DRAM:NVM array-size configurations of Figure 14.
var fig14Configs = []struct {
	name string
	mul  int
}{
	{"10M:10M", 1},
	{"20M:10M", 2},
}

// fig14Grid is the sweep grid of Figure 14 at scale s.
func fig14Grid(s Scale) (lats []float64, patterns []fig14Pattern, families []presetRow) {
	lats = []float64{200, 300, 400, 500, 600, 700}
	patterns = fig14Patterns
	if s.Sparse {
		lats = []float64{300, 600}
		patterns = patterns[1:3]
	}
	families = []presetRow{
		{machine.XeonE5_2660v2, "Ivy Bridge"},
		{machine.XeonE5_2650v3, "Haswell"},
	}
	return lats, patterns, families
}

// fig14Jobs decomposes Figure 14 into one job per (family, config, pattern,
// NVM latency) cell; each runs the MultiLat trials under the two-memory
// topology and reports the measured and analytically expected completion
// times.
func fig14Jobs(s Scale, rec *obs.Recorder) JobSet {
	js := JobSet{ID: "fig14"}
	lats, patterns, families := fig14Grid(s)
	for _, pr := range families {
		for _, cfgRow := range fig14Configs {
			for _, pat := range patterns {
				for _, nvmNS := range lats {
					js.Jobs = append(js.Jobs, Job{
						Name: fmt.Sprintf("%s/%s/%s/nvm=%.0f", pr.label, cfgRow.name, pat.name, nvmNS),
						Params: map[string]string{
							"family": pr.label, "config": cfgRow.name,
							"pattern": pat.name, "nvm_ns": fmt.Sprintf("%.0f", nvmNS),
						},
						Run: func() (Metrics, error) {
							cts := make([]sim.Time, s.Trials)
							exps := make([]sim.Time, s.Trials)
							for trial := range s.Trials {
								q := quartzConfig(nvmNS, rec)
								q.TwoMemory = true
								env, err := bench.NewEnv(bench.EnvConfig{
									Preset: pr.preset, Mode: bench.Emulated, Quartz: q,
								})
								if err != nil {
									return nil, trialErr("fig14", trial, err)
								}
								ml, err := bench.BuildMultiLat(env.Proc, env.Emu, bench.MultiLatConfig{
									DRAMLines: s.MultiLatLines * cfgRow.mul,
									NVMLines:  s.MultiLatLines,
									DRAMBurst: pat.dram, NVMBurst: pat.nvm,
									Seed: int64(trial*7 + 1),
								})
								if err != nil {
									return nil, trialErr("fig14", trial, err)
								}
								if err := env.Run(func(e *bench.Env, th *simosThread) {
									start := th.Now()
									exps[trial] = ml.Run(th, machine.PresetConfig(pr.preset).LocalLat, sim.FromNanos(nvmNS)).ExpectedCT
									cts[trial] = th.SettledNow() - start
								}); err != nil {
									return nil, trialErr("fig14", trial, err)
								}
							}
							return Metrics{
								"ct_ns":       stats.Summarize(nanos(cts)).Mean,
								"expected_ns": stats.Summarize(nanos(exps)).Mean,
							}, nil
						},
					})
				}
			}
		}
	}
	js.Assemble = func(points []Metrics) (Table, error) {
		t := Table{
			ID:     "fig14",
			Title:  "MultiLat error with DRAM+NVM virtual topology (Fig. 14)",
			Header: []string{"Family", "Config", "Pattern", "NVM ns", "CT ms", "Expected ms", "Error"},
		}
		i := 0
		for _, pr := range families {
			for _, cfgRow := range fig14Configs {
				for _, pat := range patterns {
					for _, nvmNS := range lats {
						ct, exp := points[i]["ct_ns"], points[i]["expected_ns"]
						i++
						t.Rows = append(t.Rows, []string{
							pr.label, cfgRow.name, fmt.Sprintf("%s(%d:%d)", pat.name, pat.dram, pat.nvm),
							f1(nvmNS), f2(ct / 1e6), f2(exp / 1e6), pct(stats.RelErr(ct, exp)),
						})
					}
				}
			}
		}
		t.Notes = append(t.Notes, "paper: average errors below 1.2% for all patterns and configurations")
		return t, nil
	}
	return js
}
