package experiments

import (
	"strconv"

	"github.com/quartz-emu/quartz/internal/bench"
	"github.com/quartz-emu/quartz/internal/core"
	"github.com/quartz-emu/quartz/internal/machine"
	"github.com/quartz-emu/quartz/internal/mem"
	"github.com/quartz-emu/quartz/internal/obs"
	"github.com/quartz-emu/quartz/internal/sim"
	"github.com/quartz-emu/quartz/internal/simos"
	"github.com/quartz-emu/quartz/internal/stats"
)

// modelAblationChains are the MLP degrees of the Eq. 1 vs Eq. 2 contrast.
var modelAblationChains = []int{1, 4, 8}

// modelAblationJobs decomposes the latency-model ablation into one job per
// chain count; each runs the physical reference and both model variants.
func modelAblationJobs(s Scale, rec *obs.Recorder) JobSet {
	js := JobSet{ID: "model-ablation"}
	for _, chains := range modelAblationChains {
		js.Jobs = append(js.Jobs, Job{
			Name:   "chains=" + strconv.Itoa(chains),
			Params: map[string]string{"chains": strconv.Itoa(chains)},
			Run: func() (Metrics, error) {
				mlCfg := bench.MemLatConfig{
					Lines: s.Lines / 2, Chains: chains, Iters: s.MemLatIters, Seed: 21,
				}
				runModel := func(m core.Model) (sim.Time, error) {
					q := quartzConfig(bench.RemoteLatNS(machine.XeonE5_2660v2), rec)
					q.Model = m
					res, err := runMemLat(bench.EnvConfig{
						Preset: machine.XeonE5_2660v2, Mode: bench.Emulated, Quartz: q,
					}, mlCfg)
					return res.CT, err
				}
				// The physical reference and the two model variants are three
				// independent simulations.
				var cts [3]sim.Time
				err := runUnits(3, func(u int) error {
					switch u {
					case 0:
						phys, err := runMemLat(bench.EnvConfig{Preset: machine.XeonE5_2660v2, Mode: bench.PhysicalRemote}, mlCfg)
						cts[0] = phys.CT
						return err
					case 1:
						eq2, err := runModel(core.ModelStall)
						cts[1] = eq2
						return err
					default:
						eq1, err := runModel(core.ModelSimple)
						cts[2] = eq1
						return err
					}
				})
				if err != nil {
					return nil, err
				}
				return Metrics{
					"phys_ct_ns": cts[0].Nanoseconds(),
					"eq2_ct_ns":  cts[1].Nanoseconds(),
					"eq1_ct_ns":  cts[2].Nanoseconds(),
				}, nil
			},
		})
	}
	js.Assemble = func(points []Metrics) (Table, error) {
		t := Table{
			ID:     "model-ablation",
			Title:  "Eq. 2 (stall) vs Eq. 1 (simple) latency model under MLP (Fig. 2, Ivy Bridge)",
			Header: []string{"Chains", "Conf_2 CT ms", "Eq.2 CT ms (err)", "Eq.1 CT ms (err)"},
		}
		for i, chains := range modelAblationChains {
			phys := points[i]["phys_ct_ns"]
			fmtCT := func(ctNS float64) string {
				return f2(ctNS/1e6) + " (" + pct(stats.RelErr(ctNS, phys)) + ")"
			}
			t.Rows = append(t.Rows, []string{
				strconv.Itoa(chains), f2(phys / 1e6),
				fmtCT(points[i]["eq2_ct_ns"]), fmtCT(points[i]["eq1_ct_ns"]),
			})
		}
		t.Notes = append(t.Notes, "Eq. 1 ignores MLP and over-delays parallel chains by about the chain count")
		return t, nil
	}
	return js
}

// pcommitFieldCounts are the per-object field counts of the §6 contrast.
var pcommitFieldCounts = []int{2, 4, 8, 16}

// pcommitAblationJobs decomposes the write-model ablation into one job per
// field count; each runs the serialized-pflush and pcommit variants.
func pcommitAblationJobs(s Scale, rec *obs.Recorder) JobSet {
	js := JobSet{ID: "pcommit"}
	objects := s.KVOps // reuse the scale knob: one "object" per op
	for _, fields := range pcommitFieldCounts {
		js.Jobs = append(js.Jobs, Job{
			Name:   "fields=" + strconv.Itoa(fields),
			Params: map[string]string{"fields": strconv.Itoa(fields)},
			Run: func() (Metrics, error) {
				run := func(usePCommit bool) (sim.Time, error) {
					q := quartzConfig(500, rec)
					q.WriteLatency = sim.FromNanos(500)
					env, err := bench.NewEnv(bench.EnvConfig{
						Preset: machine.XeonE5_2660v2, Mode: bench.Emulated, Quartz: q,
					})
					if err != nil {
						return 0, err
					}
					var ct sim.Time
					err = env.Run(func(e *bench.Env, th *simos.Thread) {
						base, err := e.Emu.PMalloc(uintptr(objects*fields) * mem.LineSize)
						if err != nil {
							th.Failf("pmalloc: %v", err)
						}
						start := th.Now()
						for o := 0; o < objects; o++ {
							objBase := base + uintptr(o*fields)*mem.LineSize
							for f := 0; f < fields; f++ {
								addr := objBase + uintptr(f)*mem.LineSize
								th.Store(addr)
								if usePCommit {
									e.Emu.PFlushOpt(th, addr)
								} else {
									e.Emu.PFlush(th, addr)
								}
							}
							if usePCommit {
								e.Emu.PCommit(th)
							}
						}
						e.CloseEpoch(th)
						ct = th.Now() - start
					})
					return ct, err
				}
				// The serialized and pcommit variants are independent
				// simulations.
				var cts [2]sim.Time
				err := runUnits(2, func(u int) error {
					ct, err := run(u == 1)
					cts[u] = ct
					return err
				})
				if err != nil {
					return nil, err
				}
				return Metrics{
					"pflush_ct_ns":  cts[0].Nanoseconds(),
					"pcommit_ct_ns": cts[1].Nanoseconds(),
				}, nil
			},
		})
	}
	js.Assemble = func(points []Metrics) (Table, error) {
		t := Table{
			ID:     "pcommit",
			Title:  "Serialized pflush vs clflushopt+pcommit write model (§6, Ivy Bridge)",
			Header: []string{"Fields/object", "pflush CT ms", "pcommit CT ms", "Speedup"},
		}
		for i, fields := range pcommitFieldCounts {
			serialized := points[i]["pflush_ct_ns"]
			parallel := points[i]["pcommit_ct_ns"]
			t.Rows = append(t.Rows, []string{
				strconv.Itoa(fields),
				f2(serialized / 1e6), f2(parallel / 1e6),
				f2(serialized / parallel),
			})
		}
		t.Notes = append(t.Notes, "pcommit discounts write delays that complete before the barrier (§6)")
		return t, nil
	}
	return js
}

// amortizationTarget is the emulated latency of the carry-over ablation.
const amortizationTarget = 300.0

// amortizationAblationJobs decomposes the carry-over ablation into one job
// per amortization setting (on/off).
func amortizationAblationJobs(s Scale, rec *obs.Recorder) JobSet {
	js := JobSet{ID: "amortization"}
	for _, disabled := range []bool{false, true} {
		name := "on"
		if disabled {
			name = "off"
		}
		js.Jobs = append(js.Jobs, Job{
			Name:   "amortization=" + name,
			Params: map[string]string{"amortization": name},
			Run: func() (Metrics, error) {
				q := quartzConfig(amortizationTarget, rec)
				q.DisableAmortization = disabled
				q.MaxEpoch = 500 * sim.Microsecond // frequent epochs make overhead visible
				lats := make([]sim.Time, s.Trials)
				err := runUnits(s.Trials, func(trial int) error {
					res, err := runMemLat(bench.EnvConfig{
						Preset: machine.XeonE5_2660v2, Mode: bench.Emulated, Quartz: q,
					}, bench.MemLatConfig{
						Lines: s.Lines, Chains: 1, Iters: s.MemLatIters, Seed: int64(trial + 31),
					})
					if err != nil {
						return trialErr("amortization", trial, err)
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
			ID:     "amortization",
			Title:  "Overhead amortization (carry-over) ablation (§3.2, Ivy Bridge)",
			Header: []string{"Amortization", "Target ns", "Measured ns", "Error"},
		}
		for i, label := range []string{"on (paper)", "off"} {
			mean := points[i]["mean_ns"]
			t.Rows = append(t.Rows, []string{label, f1(amortizationTarget), f1(mean), pct(stats.RelErr(mean, amortizationTarget))})
		}
		return t, nil
	}
	return js
}
