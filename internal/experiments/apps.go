package experiments

import (
	"fmt"
	"strconv"

	"github.com/quartz-emu/quartz/internal/apps/kvstore"
	"github.com/quartz-emu/quartz/internal/apps/pagerank"
	"github.com/quartz-emu/quartz/internal/bench"
	"github.com/quartz-emu/quartz/internal/core"
	"github.com/quartz-emu/quartz/internal/machine"
	"github.com/quartz-emu/quartz/internal/obs"
	"github.com/quartz-emu/quartz/internal/obs/vtprof"
	"github.com/quartz-emu/quartz/internal/sim"
	"github.com/quartz-emu/quartz/internal/stats"
)

// kvRun runs the key-value workload once in a fresh environment. The
// store's sub-microsecond critical sections would close a sync epoch every
// few operations at the default minimum epoch; per §3.2's tuning guidance
// the minimum epoch is raised until the epoch-creation overhead is
// amortizable (<4%), which the emulator's statistics feedback confirms.
func kvRun(s Scale, preset machine.Preset, mode bench.Mode, q core.Config, threads int, seed uint64, prof *vtprof.Profiler) (kvstore.WorkloadResult, error) {
	if q.MinEpoch != 0 && q.MinEpoch < 50*sim.Microsecond {
		q.MinEpoch = 50 * sim.Microsecond
	}
	env, err := bench.NewEnv(bench.EnvConfig{
		Preset: preset, Machine: appMachine(preset, kvL3Bytes), Mode: mode, Quartz: q,
		Lookahead: 2 * sim.Microsecond,
		Profiler:  prof,
	})
	if err != nil {
		return kvstore.WorkloadResult{}, err
	}
	alloc := func(size uintptr) (uintptr, error) {
		return env.Proc.MallocOnNode(size, env.AllocNode())
	}
	store, err := kvstore.New(env.Proc, kvstore.Config{Partitions: 16, Alloc: alloc})
	if err != nil {
		return kvstore.WorkloadResult{}, err
	}
	var res kvstore.WorkloadResult
	err = env.Run(func(e *bench.Env, th *simosThread) {
		var rerr error
		res, rerr = kvstore.RunWorkload(store, th, kvstore.WorkloadConfig{
			Preload: s.KVPreload, Threads: threads, OpsPerThread: s.KVOps,
			Seed: seed, ValueBytes: 1024, ValueAlloc: alloc,
		})
		if rerr != nil {
			th.Failf("%v", rerr)
		}
	})
	return res, err
}

// fig15Threads are the thread counts of Figure 15.
var fig15Threads = []int{1, 2, 4, 8}

// fig15Jobs decomposes Figure 15 into one job per (thread count, trial):
// each runs the paired physically-remote and emulated workloads with the
// same seed and reports the per-trial throughput errors.
func fig15Jobs(s Scale, rec *obs.Recorder) JobSet {
	js := JobSet{ID: "fig15"}
	preset := machine.XeonE5_2450
	for _, threads := range fig15Threads {
		for trial := 0; trial < s.Trials; trial++ {
			name := fmt.Sprintf("threads=%d/trial=%d", threads, trial)
			js.Jobs = append(js.Jobs, Job{
				Name:   name,
				Params: map[string]string{"threads": strconv.Itoa(threads), "trial": strconv.Itoa(trial)},
				Run: func() (Metrics, error) {
					seed := uint64(trial*101 + threads)
					prof := s.profiler(js.ID, name)
					phys, err := kvRun(s, preset, bench.PhysicalRemote, core.Config{}, threads, seed, prof)
					if err != nil {
						return nil, trialErr("fig15 physical", trial, err)
					}
					emu, err := kvRun(s, preset, bench.Emulated,
						quartzConfig(bench.RemoteLatNS(preset), rec), threads, seed, prof)
					if err != nil {
						return nil, trialErr("fig15 emulated", trial, err)
					}
					return Metrics{
						"put_err": stats.RelErr(emu.PutsPerS, phys.PutsPerS),
						"get_err": stats.RelErr(emu.GetsPerS, phys.GetsPerS),
					}, nil
				},
			})
		}
	}
	js.Assemble = func(points []Metrics) (Table, error) {
		t := Table{
			ID:     "fig15",
			Title:  "KV store (MassTree stand-in) validation errors (Fig. 15, Sandy Bridge)",
			Header: []string{"Threads", "put/s error", "get/s error"},
		}
		for i, threads := range fig15Threads {
			trials := points[i*s.Trials : (i+1)*s.Trials]
			t.Rows = append(t.Rows, []string{
				strconv.Itoa(threads),
				pct(meanOf(trials, "put_err")),
				pct(meanOf(trials, "get_err")),
			})
		}
		t.Notes = append(t.Notes, "paper: 2-8% across 1-8 threads")
		return t, nil
	}
	return js
}

// prRun runs PageRank once in a fresh environment, reporting the kernel's
// settled completion time.
func prRun(s Scale, mode bench.Mode, q core.Config, seed uint64, prof *vtprof.Profiler) (sim.Time, error) {
	env, err := bench.NewEnv(bench.EnvConfig{
		Preset: machine.XeonE5_2450, Machine: appMachine(machine.XeonE5_2450, prL3Bytes),
		Mode: mode, Quartz: q,
		Profiler: prof,
	})
	if err != nil {
		return 0, err
	}
	alloc := func(size uintptr) (uintptr, error) {
		return env.Proc.MallocOnNode(size, env.AllocNode())
	}
	g, err := pagerank.Generate(pagerank.GenerateConfig{
		Vertices: s.PRVertices, EdgesPerVertex: s.PREdgesPerVertex, Seed: seed,
	}, alloc)
	if err != nil {
		return 0, err
	}
	var ct sim.Time
	err = env.Run(func(e *bench.Env, th *simosThread) {
		cfg := pagerank.DefaultConfig()
		cfg.MaxIters = s.PRIters
		start := th.Now()
		if _, rerr := pagerank.Run(g, th, cfg, alloc); rerr != nil {
			th.Failf("%v", rerr)
		}
		ct = th.SettledNow() - start
	})
	return ct, err
}

// pageRankValidationJobs decomposes the §4.7 validation into one job per
// trial, each running the paired Conf_2/Conf_1 executions with the same
// seed.
func pageRankValidationJobs(s Scale, rec *obs.Recorder) JobSet {
	js := JobSet{ID: "pagerank-validate"}
	for trial := 0; trial < s.Trials; trial++ {
		name := fmt.Sprintf("trial=%d", trial)
		js.Jobs = append(js.Jobs, Job{
			Name:   name,
			Params: map[string]string{"trial": strconv.Itoa(trial)},
			Run: func() (Metrics, error) {
				seed := uint64(trial + 5)
				prof := s.profiler(js.ID, name)
				phys, err := prRun(s, bench.PhysicalRemote, core.Config{}, seed, prof)
				if err != nil {
					return nil, trialErr("pagerank physical", trial, err)
				}
				emu, err := prRun(s, bench.Emulated, quartzConfig(bench.RemoteLatNS(machine.XeonE5_2450), rec), seed, prof)
				if err != nil {
					return nil, trialErr("pagerank emulated", trial, err)
				}
				return Metrics{
					"phys_ct_ns": phys.Nanoseconds(),
					"emu_ct_ns":  emu.Nanoseconds(),
				}, nil
			},
		})
	}
	js.Assemble = func(points []Metrics) (Table, error) {
		t := Table{
			ID:     "pagerank-validate",
			Title:  "PageRank validation, Conf_1 vs Conf_2 (§4.7, Sandy Bridge)",
			Header: []string{"Conf_2 CT ms", "Conf_1 CT ms", "Error"},
		}
		pm, em := meanOf(points, "phys_ct_ns"), meanOf(points, "emu_ct_ns")
		t.Rows = append(t.Rows, []string{f2(pm / 1e6), f2(em / 1e6), pct(stats.RelErr(em, pm))})
		t.Notes = append(t.Notes, "paper: 2.9% on Sandy Bridge")
		return t, nil
	}
	return js
}

// fig16Point is one sweep point of Figure 16: a label plus the emulator
// configuration it evaluates.
type fig16Point struct {
	sweep   string // "baseline", "latency" or "bandwidth"
	setting string
	q       core.Config
}

// fig16Points builds the Figure 16 sweep grid at scale s, baseline first.
func fig16Points(s Scale, rec *obs.Recorder) []fig16Point {
	localNS := machine.PresetConfig(machine.XeonE5_2450).LocalLat.Nanoseconds()

	latPoints := []float64{100, 200, 300, 500, 1000, 2000}
	bwPoints := []float64{10e9, 5e9, 3e9, 1.5e9, 1e9, 0.5e9}
	if s.Sparse {
		latPoints = []float64{200, 1000, 2000}
		bwPoints = []float64{5e9, 1.5e9, 0.5e9}
	}

	points := []fig16Point{{sweep: "baseline", setting: "DRAM", q: quartzConfig(localNS, rec)}}
	for _, lat := range latPoints {
		points = append(points, fig16Point{
			sweep: "latency", setting: fmt.Sprintf("%.0fns", lat), q: quartzConfig(lat, rec),
		})
	}
	for _, bw := range bwPoints {
		q := quartzConfig(localNS, rec)
		q.NVMBandwidth = bw
		points = append(points, fig16Point{
			sweep: "bandwidth", setting: fmt.Sprintf("%.1fGB/s", bw/1e9), q: q,
		})
	}
	return points
}

// fig16Jobs decomposes Figure 16 into two jobs per sweep point — the
// PageRank run and the KV-store run — so both applications sweep
// concurrently; the assembler normalizes every point against the baseline
// jobs.
func fig16Jobs(s Scale, rec *obs.Recorder) JobSet {
	js := JobSet{ID: "fig16"}
	points := fig16Points(s, rec)
	for _, pt := range points {
		prName := pt.sweep + "=" + pt.setting + "/pagerank"
		kvName := pt.sweep + "=" + pt.setting + "/kvstore"
		js.Jobs = append(js.Jobs,
			Job{
				Name:   prName,
				Params: map[string]string{"sweep": pt.sweep, "setting": pt.setting, "app": "pagerank"},
				Run: func() (Metrics, error) {
					pr, err := prRun(s, bench.Emulated, pt.q, 5, s.profiler(js.ID, prName))
					if err != nil {
						return nil, fmt.Errorf("fig16 %s %s: %w", pt.sweep, pt.setting, err)
					}
					return Metrics{"pr_ct_ms": pr.Milliseconds()}, nil
				},
			},
			Job{
				Name:   kvName,
				Params: map[string]string{"sweep": pt.sweep, "setting": pt.setting, "app": "kvstore"},
				Run: func() (Metrics, error) {
					kv, err := kvRun(s, machine.XeonE5_2450, bench.Emulated, pt.q, 4, 5, s.profiler(js.ID, kvName))
					if err != nil {
						return nil, fmt.Errorf("fig16 %s %s: %w", pt.sweep, pt.setting, err)
					}
					return Metrics{"kv_ops": kv.PutsPerS + kv.GetsPerS}, nil
				},
			},
		)
	}
	js.Assemble = func(pointsM []Metrics) (Table, error) {
		t := Table{
			ID:     "fig16",
			Title:  "Application sensitivity to NVM latency and bandwidth (Fig. 16, Sandy Bridge)",
			Header: []string{"Sweep", "Setting", "PageRank CT ms (x base)", "KV ops/s (frac of base)"},
		}
		basePR := pointsM[0]["pr_ct_ms"]
		baseKV := pointsM[1]["kv_ops"]
		t.Rows = append(t.Rows, []string{"baseline", "DRAM", f2(basePR) + " (1.00x)", fmt.Sprintf("%.0f (1.00)", baseKV)})
		for i, pt := range points {
			if i == 0 {
				continue
			}
			pr := pointsM[2*i]["pr_ct_ms"]
			kv := pointsM[2*i+1]["kv_ops"]
			t.Rows = append(t.Rows, []string{
				pt.sweep, pt.setting,
				fmt.Sprintf("%.2f (%.2fx)", pr, pr/basePR),
				fmt.Sprintf("%.0f (%.2f)", kv, kv/baseKV),
			})
		}
		t.Notes = append(t.Notes,
			"paper: at 200ns PageRank CT ~unchanged, KV throughput -15%; at 2us both degrade ~5x",
			"paper: bandwidth matters only below ~3GB/s (PageRank) / ~1.5GB/s (KV)")
		return t, nil
	}
	return js
}
