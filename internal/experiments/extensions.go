package experiments

import (
	"fmt"
	"strconv"

	"github.com/quartz-emu/quartz/internal/apps/graph500"
	"github.com/quartz-emu/quartz/internal/apps/pagerank"
	"github.com/quartz-emu/quartz/internal/bench"
	"github.com/quartz-emu/quartz/internal/core"
	"github.com/quartz-emu/quartz/internal/machine"
	"github.com/quartz-emu/quartz/internal/mem"
	"github.com/quartz-emu/quartz/internal/obs"
	"github.com/quartz-emu/quartz/internal/sim"
	"github.com/quartz-emu/quartz/internal/stats"
)

// graph500Run runs one BFS execution in a fresh environment.
func graph500Run(s Scale, mode bench.Mode, q core.Config, seed uint64) (graph500.Result, error) {
	env, err := bench.NewEnv(bench.EnvConfig{
		Preset: machine.XeonE5_2660v2, Machine: appMachine(machine.XeonE5_2660v2, prL3Bytes),
		Mode: mode, Quartz: q,
	})
	if err != nil {
		return graph500.Result{}, err
	}
	alloc := func(size uintptr) (uintptr, error) {
		return env.Proc.MallocOnNode(size, env.AllocNode())
	}
	g, err := pagerank.Generate(pagerank.GenerateConfig{
		Vertices: s.PRVertices, EdgesPerVertex: s.PREdgesPerVertex, Seed: seed,
	}, alloc)
	if err != nil {
		return graph500.Result{}, err
	}
	var res graph500.Result
	err = env.Run(func(e *bench.Env, th *simosThread) {
		start := th.Now()
		r, rerr := graph500.BFS(g, th, 0, alloc)
		if rerr != nil {
			th.Failf("%v", rerr)
		}
		e.CloseEpoch(th)
		r.CT = th.Now() - start
		res = r
	})
	return res, err
}

// graph500ValidationJobs decomposes the §7 validation into one job per
// trial, each running the paired Conf_2/Conf_1 executions with the same
// seed.
func graph500ValidationJobs(s Scale, rec *obs.Recorder) JobSet {
	js := JobSet{ID: "graph500-validate"}
	for trial := 0; trial < s.Trials; trial++ {
		js.Jobs = append(js.Jobs, Job{
			Name:   fmt.Sprintf("trial=%d", trial),
			Params: map[string]string{"trial": strconv.Itoa(trial)},
			Run: func() (Metrics, error) {
				seed := uint64(trial + 11)
				// The Conf_2 and Conf_1 runs are independent simulations.
				var phys, emu graph500.Result
				err := runUnits(2, func(u int) error {
					if u == 0 {
						p, err := graph500Run(s, bench.PhysicalRemote, core.Config{}, seed)
						if err != nil {
							return trialErr("graph500 physical", trial, err)
						}
						phys = p
						return nil
					}
					e, err := graph500Run(s, bench.Emulated, quartzConfig(bench.RemoteLatNS(machine.XeonE5_2660v2), rec), seed)
					if err != nil {
						return trialErr("graph500 emulated", trial, err)
					}
					emu = e
					return nil
				})
				if err != nil {
					return nil, err
				}
				return Metrics{
					"phys_ct_ns": phys.CT.Nanoseconds(),
					"emu_ct_ns":  emu.CT.Nanoseconds(),
					"teps":       emu.TEPS,
				}, nil
			},
		})
	}
	js.Assemble = func(points []Metrics) (Table, error) {
		t := Table{
			ID:     "graph500-validate",
			Title:  "Graph500 BFS validation, Conf_1 vs Conf_2 (§7, Ivy Bridge)",
			Header: []string{"Conf_2 CT ms", "Conf_1 CT ms", "Error", "TEPS (Conf_1)"},
		}
		var physs, emus stats.Accumulator
		var teps float64
		for _, p := range points {
			physs.Add(p["phys_ct_ns"])
			emus.Add(p["emu_ct_ns"])
			teps += p["teps"] / float64(s.Trials)
		}
		pm := physs.Summary().Mean
		em := emus.Summary().Mean
		t.Rows = append(t.Rows, []string{
			f2(pm / 1e6), f2(em / 1e6), pct(stats.RelErr(em, pm)), fmt.Sprintf("%.3g", teps),
		})
		t.Notes = append(t.Notes, "paper: within 12% of a hardware latency emulator on Graph500")
		return t, nil
	}
	return js
}

// asymSettings are the read/write throttle combinations of the §2.1
// extension study.
var asymSettings = []struct {
	name        string
	read, write uint16
}{
	{"full/full", 4095, 4095},
	{"full/quarter", 4095, 512},
	{"quarter/full", 512, 4095},
}

// asymKernels are the two measured stream kernels per throttle setting.
var asymKernels = []struct {
	name string
	copy bool
}{
	{"read", false},
	{"copy", true},
}

// asymmetricBandwidthJobs decomposes the asymmetric-throttling study into
// one job per (throttle setting, kernel).
func asymmetricBandwidthJobs(s Scale, _ *obs.Recorder) JobSet {
	js := JobSet{ID: "ext-asym-bw"}
	for _, cfgRow := range asymSettings {
		for _, kern := range asymKernels {
			js.Jobs = append(js.Jobs, Job{
				Name:   cfgRow.name + "/" + kern.name,
				Params: map[string]string{"throttle": cfgRow.name, "kernel": kern.name},
				Run: func() (Metrics, error) {
					bw, err := asymMeasure(s, cfgRow.read, cfgRow.write, kern.copy)
					if err != nil {
						return nil, fmt.Errorf("asym-bw %s stream: %w", kern.name, err)
					}
					return Metrics{"bw": bw}, nil
				},
			})
		}
	}
	js.Assemble = func(points []Metrics) (Table, error) {
		t := Table{
			ID:     "ext-asym-bw",
			Title:  "Asymmetric read/write bandwidth throttling (§2.1 extension, Sandy Bridge)",
			Header: []string{"Throttle (r/w)", "Read-stream GB/s", "Copy-stream GB/s"},
		}
		for i, cfgRow := range asymSettings {
			readBW := points[2*i]["bw"]
			copyBW := points[2*i+1]["bw"]
			t.Rows = append(t.Rows, []string{cfgRow.name, f2(readBW / 1e9), f2(copyBW / 1e9)})
		}
		t.Notes = append(t.Notes,
			"write throttling leaves the read-only stream intact but caps the copy kernel (writeback path)",
			"the paper's testbeds exposed these registers but they were not functional (§2.1 footnote)")
		return t, nil
	}
	return js
}

// asymMeasure runs one stream kernel under the given read/write throttle
// registers and reports its bandwidth.
func asymMeasure(s Scale, read, write uint16, copyKernel bool) (float64, error) {
	env, err := bench.NewEnv(bench.EnvConfig{
		Preset: machine.XeonE5_2450, Mode: bench.Native,
		Lookahead: 5 * sim.Microsecond,
	})
	if err != nil {
		return 0, err
	}
	for _, sock := range env.Mach.Sockets() {
		if err := sock.Ctrl.SetReadThrottle(read); err != nil {
			return 0, err
		}
		if err := sock.Ctrl.SetWriteThrottle(write); err != nil {
			return 0, err
		}
	}
	var bw float64
	err = env.Run(func(e *bench.Env, th *simosThread) {
		if copyKernel {
			res, rerr := bench.RunStream(e, th, bench.StreamConfig{
				Lines: s.StreamLines, Threads: 4, Node: 0,
			})
			if rerr != nil {
				th.Failf("%v", rerr)
			}
			bw = res.BytesPerSec
			return
		}
		// Read-only stream: batched loads over a large region.
		base, aerr := e.Proc.Malloc(uintptr(s.StreamLines) * mem.LineSize)
		if aerr != nil {
			th.Failf("%v", aerr)
		}
		batch := make([]uintptr, 0, 8)
		start := th.Now()
		for i := 0; i < s.StreamLines; i += 8 {
			batch = batch[:0]
			for j := i; j < i+8 && j < s.StreamLines; j++ {
				batch = append(batch, base+uintptr(j)*mem.LineSize)
			}
			th.LoadGroup(batch)
		}
		ct := th.Now() - start
		bw = float64(s.StreamLines) * mem.LineSize / ct.Seconds()
	})
	return bw, err
}
