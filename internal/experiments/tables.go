package experiments

import (
	"strconv"

	"github.com/quartz-emu/quartz/internal/bench"
	"github.com/quartz-emu/quartz/internal/machine"
	"github.com/quartz-emu/quartz/internal/obs"
	"github.com/quartz-emu/quartz/internal/perf"
	"github.com/quartz-emu/quartz/internal/sim"
	"github.com/quartz-emu/quartz/internal/simos"
	"github.com/quartz-emu/quartz/internal/stats"
)

// Table1 reproduces the paper's Table 1: the performance events Quartz
// programs per processor family.
func Table1() Table {
	t := Table{
		ID:     "table1",
		Title:  "Performance events per processor family (Table 1)",
		Header: []string{"Family", "Model input", "Hardware event"},
	}
	for _, f := range []perf.Family{perf.SandyBridge, perf.IvyBridge, perf.Haswell} {
		for _, e := range perf.EventsFor(f) {
			name, _ := perf.EventName(f, e)
			t.Rows = append(t.Rows, []string{f.String(), e.String(), name})
		}
	}
	return t
}

// table1Jobs: Table 1 is a static inventory, so the set has no jobs and the
// assembler renders it directly.
func table1Jobs(Scale, *obs.Recorder) JobSet {
	return JobSet{
		ID:       "table1",
		Assemble: func([]Metrics) (Table, error) { return Table1(), nil },
	}
}

// table2Modes are the two measured configurations of Table 2.
var table2Modes = []struct {
	name string
	mode bench.Mode
}{
	{"local", bench.Native},
	{"remote", bench.PhysicalRemote},
}

// table2Jobs decomposes Table 2 into one job per (family, local/remote)
// cell; each runs the single-chain MemLat trials (the Intel MLC methodology)
// and reports the per-iteration latency summary.
func table2Jobs(s Scale, _ *obs.Recorder) JobSet {
	js := JobSet{ID: "table2"}
	prs := presetRows()
	for _, pr := range prs {
		for _, m := range table2Modes {
			js.Jobs = append(js.Jobs, Job{
				Name:   pr.label + "/" + m.name,
				Params: map[string]string{"family": pr.label, "mode": m.name},
				Run: func() (Metrics, error) {
					lats := make([]sim.Time, s.Trials)
					err := runUnits(s.Trials, func(trial int) error {
						res, err := runMemLat(
							bench.EnvConfig{Preset: pr.preset, Mode: m.mode},
							bench.MemLatConfig{Lines: s.Lines, Chains: 1, Iters: s.MemLatIters, Seed: int64(100 + trial)},
						)
						if err != nil {
							return trialErr("table2", trial, err)
						}
						lats[trial] = res.PerIteration
						return nil
					})
					if err != nil {
						return nil, err
					}
					sum := stats.Summarize(nanos(lats))
					return Metrics{"min_ns": sum.Min, "mean_ns": sum.Mean, "max_ns": sum.Max}, nil
				},
			})
		}
	}
	js.Assemble = func(points []Metrics) (Table, error) {
		t := Table{
			ID:     "table2",
			Title:  "Measured memory access latencies, ns (Table 2)",
			Header: []string{"Processor family", "Min local", "Aver local", "Max local", "Min remote", "Aver remote", "Max remote"},
		}
		for i, pr := range prs {
			local, remote := points[2*i], points[2*i+1]
			t.Rows = append(t.Rows, []string{
				pr.label,
				f1(local["min_ns"]), f1(local["mean_ns"]), f1(local["max_ns"]),
				f1(remote["min_ns"]), f1(remote["mean_ns"]), f1(remote["max_ns"]),
			})
		}
		t.Notes = append(t.Notes,
			"paper: Sandy 97/163, Ivy 87/176, Haswell 120/175 (avg local/remote)")
		return t, nil
	}
	return js
}

// fig8Registers are the thermal-control register settings of Figure 8.
var fig8Registers = []uint16{64, 128, 256, 512, 1024, 1536, 2048, 3072, 4095}

// fig8Jobs decomposes Figure 8 into one job per register setting; each runs
// the STREAM trials and reports the mean copy bandwidth.
func fig8Jobs(s Scale, _ *obs.Recorder) JobSet {
	js := JobSet{ID: "fig8"}
	for _, reg := range fig8Registers {
		js.Jobs = append(js.Jobs, Job{
			Name:   "register=" + strconv.Itoa(int(reg)),
			Params: map[string]string{"register": strconv.Itoa(int(reg))},
			Run: func() (Metrics, error) {
				bws := make([]float64, s.Trials)
				err := runUnits(s.Trials, func(trial int) error {
					env, err := bench.NewEnv(bench.EnvConfig{
						Preset: machine.XeonE5_2450, Mode: bench.Native,
						Lookahead: 5 * sim.Microsecond,
					})
					if err != nil {
						return trialErr("fig8", trial, err)
					}
					for _, sock := range env.Mach.Sockets() {
						if err := sock.Ctrl.SetThrottle(reg); err != nil {
							return trialErr("fig8", trial, err)
						}
					}
					var res bench.StreamResult
					err = env.Run(func(e *bench.Env, th *simos.Thread) {
						var rerr error
						res, rerr = bench.RunStream(e, th, bench.StreamConfig{
							Lines: s.StreamLines, Threads: 4, Node: 0,
						})
						if rerr != nil {
							th.Failf("%v", rerr)
						}
					})
					if err != nil {
						return trialErr("fig8", trial, err)
					}
					bws[trial] = res.BytesPerSec / 1e9
					return nil
				})
				if err != nil {
					return nil, err
				}
				return Metrics{"copy_gbps": stats.Summarize(bws).Mean}, nil
			},
		})
	}
	js.Assemble = func(points []Metrics) (Table, error) {
		t := Table{
			ID:     "fig8",
			Title:  "STREAM copy bandwidth vs thermal-control register (Fig. 8, Sandy Bridge)",
			Header: []string{"Register", "Copy GB/s"},
		}
		for i, reg := range fig8Registers {
			t.Rows = append(t.Rows, []string{
				strconv.Itoa(int(reg)), f2(points[i]["copy_gbps"]),
			})
		}
		t.Notes = append(t.Notes,
			"linear growth until the attainable maximum, then flat (paper Fig. 8)")
		return t, nil
	}
	return js
}
