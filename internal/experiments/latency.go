package experiments

import (
	"fmt"
	"strconv"

	"github.com/quartz-emu/quartz/internal/bench"
	"github.com/quartz-emu/quartz/internal/core"
	"github.com/quartz-emu/quartz/internal/sim"
	"github.com/quartz-emu/quartz/internal/simos"
	"github.com/quartz-emu/quartz/internal/stats"
)

// fig11Chains are the MemLat parallelism degrees of Figure 11.
var fig11Chains = []int{1, 2, 3, 4, 5, 8}

// fig11Jobs decomposes Figure 11 into one job per (family, chain count):
// each runs the paired Conf_2 (physically remote) and Conf_1 (emulated)
// trials and reports the mean completion times.
func fig11Jobs(s Scale) JobSet {
	js := JobSet{ID: "fig11"}
	prs := presetRows()
	for _, pr := range prs {
		for _, chains := range fig11Chains {
			name := fmt.Sprintf("%s/chains=%d", pr.label, chains)
			js.Jobs = append(js.Jobs, Job{
				Name:   name,
				Params: map[string]string{"family": pr.label, "chains": strconv.Itoa(chains)},
				Run: func() (Metrics, error) {
					phys := make([]sim.Time, s.Trials)
					emu := make([]sim.Time, s.Trials)
					for trial := range s.Trials {
						mlCfg := bench.MemLatConfig{
							Lines: s.Lines / 2, Chains: chains, Iters: s.MemLatIters,
							Seed: int64(trial*31 + chains),
						}
						p, err := runMemLat(s, js.ID, name, bench.EnvConfig{
							Preset: pr.preset, Mode: bench.PhysicalRemote,
						}, mlCfg, (*simos.Thread).SettledNow)
						if err != nil {
							return nil, trialErr("fig11 physical", trial, err)
						}
						e, err := runMemLat(s, js.ID, name, bench.EnvConfig{
							Preset: pr.preset, Mode: bench.Emulated,
							Quartz: quartzConfig(bench.RemoteLatNS(pr.preset)),
						}, mlCfg, (*simos.Thread).SettledNow)
						if err != nil {
							return nil, trialErr("fig11 emulated", trial, err)
						}
						phys[trial], emu[trial] = p, e
					}
					return Metrics{
						"phys_ct_ns": stats.Summarize(nanos(phys)).Mean,
						"emu_ct_ns":  stats.Summarize(nanos(emu)).Mean,
					}, nil
				},
			})
		}
	}
	js.Assemble = func(points []Metrics) (Table, error) {
		t := Table{
			ID:     "fig11",
			Title:  "MemLat emulation error vs memory-level parallelism (Fig. 11)",
			Header: []string{"Family", "Chains", "Conf_2 CT ms", "Conf_1 CT ms", "Error"},
		}
		i := 0
		for _, pr := range prs {
			for _, chains := range fig11Chains {
				pm, em := points[i]["phys_ct_ns"], points[i]["emu_ct_ns"]
				i++
				t.Rows = append(t.Rows, []string{
					pr.label, strconv.Itoa(chains),
					f2(pm / 1e6), f2(em / 1e6), pct(stats.RelErr(em, pm)),
				})
			}
		}
		t.Notes = append(t.Notes, "paper: 0.2%-4% across chains and families")
		return t, nil
	}
	return js
}

// fig12Targets are the emulated NVM latencies of Figure 12.
var fig12Targets = []float64{200, 300, 400, 500, 600, 700, 800, 900, 1000}

// fig12Jobs decomposes Figure 12 into one job per (family, target latency):
// each runs the MemLat trials at that emulated latency and reports the
// per-iteration latency summary.
func fig12Jobs(s Scale) JobSet {
	js := JobSet{ID: "fig12"}
	prs := presetRows()
	for _, pr := range prs {
		for _, target := range fig12Targets {
			name := fmt.Sprintf("%s/target=%.0f", pr.label, target)
			js.Jobs = append(js.Jobs, Job{
				Name:   name,
				Params: map[string]string{"family": pr.label, "target_ns": fmt.Sprintf("%.0f", target)},
				Run: func() (Metrics, error) {
					lats := make([]sim.Time, s.Trials)
					for trial := range s.Trials {
						ct, err := runMemLat(s, js.ID, name, bench.EnvConfig{
							Preset: pr.preset, Mode: bench.Emulated,
							Quartz: quartzConfig(target),
						}, bench.MemLatConfig{
							Lines: s.Lines, Chains: 1, Iters: s.MemLatIters,
							Seed: int64(trial*13 + int(target)),
						}, (*simos.Thread).SettledNow)
						if err != nil {
							return nil, trialErr("fig12", trial, err)
						}
						lats[trial] = ct / sim.Time(s.MemLatIters)
					}
					sum := stats.Summarize(nanos(lats))
					return Metrics{"mean_ns": sum.Mean, "min_ns": sum.Min, "max_ns": sum.Max}, nil
				},
			})
		}
	}
	js.Assemble = func(points []Metrics) (Table, error) {
		t := Table{
			ID:     "fig12",
			Title:  "MemLat-reported latency vs emulated NVM latency (Fig. 12)",
			Header: []string{"Family", "Target ns", "Measured ns", "Min", "Max", "Error"},
		}
		i := 0
		for _, pr := range prs {
			for _, target := range fig12Targets {
				sum := points[i]
				i++
				t.Rows = append(t.Rows, []string{
					pr.label, f1(target), f1(sum["mean_ns"]), f1(sum["min_ns"]), f1(sum["max_ns"]),
					pct(stats.RelErr(sum["mean_ns"], target)),
				})
			}
		}
		t.Notes = append(t.Notes, "paper error bands: <9% Sandy Bridge, <2% Ivy Bridge, <6% Haswell")
		return t, nil
	}
	return js
}

// fig13MinEpochs are the minimum-epoch settings of Figure 13 (the 10 ms
// entry disables sync-epoch delay propagation since min == max).
var fig13MinEpochs = []sim.Time{
	10 * sim.Microsecond,
	100 * sim.Microsecond,
	1 * sim.Millisecond,
	10 * sim.Millisecond,
}

// fig13Variants are the two Multi-Threaded benchmark variants of Figure 13.
var fig13Variants = []struct {
	name   string
	outDur int
}{
	{"cs only", 0},
	{"with compute", 100},
}

// fig13Threads are the thread counts of Figure 13.
var fig13Threads = []int{2, 4, 8}

// fig13Jobs decomposes Figure 13 into one job per (family, variant, thread
// count, epoch setting) cell, where setting 0 is the no-emulation
// (physically remote) reference and settings 1..4 the four minimum epochs.
// Each job runs the Multi-Threaded trials and reports the mean completion
// time.
func fig13Jobs(s Scale) JobSet {
	js := JobSet{ID: "fig13"}
	families := presetRows()[:2] // Sandy Bridge, Ivy Bridge (as in the paper)
	type setting struct {
		name     string
		emulated bool
		minEpoch sim.Time
	}
	settings := []setting{{name: "actual"}}
	for _, me := range fig13MinEpochs {
		settings = append(settings, setting{name: "min=" + me.String(), emulated: true, minEpoch: me})
	}
	for _, pr := range families {
		for _, variant := range fig13Variants {
			for _, threads := range fig13Threads {
				for _, st := range settings {
					mtCfg := bench.MTConfig{
						Threads: threads, Sections: s.MTSections, CSDur: 100,
						OutDur: variant.outDur, Lines: s.Lines / 4, Seed: 77,
					}
					mode, q := bench.PhysicalRemote, core.Config{}
					if st.emulated {
						mode = bench.Emulated
						q = quartzConfig(bench.RemoteLatNS(pr.preset))
						q.MinEpoch = st.minEpoch
						q.MaxEpoch = 10 * sim.Millisecond
					}
					name := fmt.Sprintf("%s/%s/threads=%d/%s", pr.label, variant.name, threads, st.name)
					js.Jobs = append(js.Jobs, Job{
						Name: name,
						Params: map[string]string{
							"family": pr.label, "variant": variant.name,
							"threads": strconv.Itoa(threads), "setting": st.name,
						},
						Run: func() (Metrics, error) {
							cts := make([]sim.Time, s.Trials)
							for trial := range s.Trials {
								env, err := s.env(js.ID, name, bench.EnvConfig{
									Preset: pr.preset, Mode: mode, Quartz: q,
									Lookahead: 2 * sim.Microsecond,
								})
								if err != nil {
									return nil, trialErr("fig13", trial, err)
								}
								cfg := mtCfg
								cfg.Node = env.AllocNode()
								cfg.Seed += int64(trial)
								var res bench.MTResult
								if err := env.Run(func(e *bench.Env, th *simosThread) {
									var rerr error
									res, rerr = bench.RunMultiThreaded(e, th, cfg)
									if rerr != nil {
										th.Failf("%v", rerr)
									}
								}); err != nil {
									return nil, trialErr("fig13", trial, err)
								}
								cts[trial] = res.CT
							}
							return Metrics{"ct_ns": stats.Summarize(nanos(cts)).Mean}, nil
						},
					})
				}
			}
		}
	}
	perRow := len(settings)
	js.Assemble = func(points []Metrics) (Table, error) {
		t := Table{
			ID:    "fig13",
			Title: "Multi-Threaded benchmark: delay propagation via minimum epochs (Fig. 13)",
			Header: []string{"Family", "Variant", "Threads", "Actual ms",
				"min=10us", "min=0.1ms", "min=1ms", "min=10ms(no-prop)"},
		}
		i := 0
		for _, pr := range families {
			for _, variant := range fig13Variants {
				for _, threads := range fig13Threads {
					actual := sim.FromNanos(points[i]["ct_ns"])
					row := []string{pr.label, variant.name, strconv.Itoa(threads), f2(actual.Milliseconds())}
					for k := 1; k < perRow; k++ {
						ct := sim.FromNanos(points[i+k]["ct_ns"])
						row = append(row, fmt.Sprintf("%.2f (%+.1f%%)",
							ct.Milliseconds(), stats.SignedErr(float64(ct), float64(actual))*100))
					}
					i += perRow
					t.Rows = append(t.Rows, row)
				}
			}
		}
		t.Notes = append(t.Notes,
			"paper: min epochs <=1ms track the actual run (<3% error); min=max=10ms (no propagation) diverges with threads (up to 34%)")
		return t, nil
	}
	return js
}
