package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"

	"github.com/quartz-emu/quartz/internal/apps/kvstore"
	"github.com/quartz-emu/quartz/internal/bench"
	"github.com/quartz-emu/quartz/internal/core"
	"github.com/quartz-emu/quartz/internal/experiments"
	"github.com/quartz-emu/quartz/internal/machine"
	"github.com/quartz-emu/quartz/internal/obs"
	"github.com/quartz-emu/quartz/internal/obs/vtprof"
	"github.com/quartz-emu/quartz/internal/runner"
	"github.com/quartz-emu/quartz/internal/sim"
	"github.com/quartz-emu/quartz/internal/simos"
	traffic "github.com/quartz-emu/quartz/internal/workload"
)

// A workload is a fixed, seeded list of units — simulations, or one runner
// suite — that the harness runs back to back as one pass and repeats for
// the measured duration.
type workload struct {
	name string
	why  string
	// procs is the child's GOMAXPROCS: 1 for the serial simulations, so
	// their coroutine handoffs stay on one OS thread instead of paying the
	// host's cross-CPU wake-up latency (README: Run shape); the paper suite
	// runs 2 runner workers and gets 2.
	procs int
	units func(sz sizes, seed int64) []unit
}

// A unit is one independent simulation of a pass. run reports the phases of
// its host time through ph and returns what it simulated; it returns an
// error when the simulation failed or an output invariant does not hold.
type unit struct {
	name string
	// pair and conf group the Conf_2 (physically remote) and Conf_1
	// (emulated) simulations whose completion times give the emulation
	// error; conf is 0 for units outside such a pair.
	pair string
	conf int
	run  func(ph *phaser) (outcome, error)
}

// outcome is a unit's simulated result. sim holds the outputs checked
// against testdata/expected.json and against every repeat of the unit; ct
// is the completion time paired units compare; counts are the layers'
// simulated activity.
type outcome struct {
	sim    simOut
	ct     sim.Time
	counts counts
}

// sizes holds every unit-size knob. benchSizes is what the benchmark
// measures; tinySizes keeps the tests fast.
type sizes struct {
	// golden marks the sizes testdata/expected.json holds outputs for.
	golden bool

	memLatLines int
	memLatRuns  []chainRun

	mtSections, mtLines int

	kvPreload, kvClients      int
	kvReadPool, kvWritePool   int
	kvReadWarmup, kvReadOps   int
	kvWriteWarmup, kvWriteOps int
	kvArrival                 sim.Time

	paper experiments.Scale
}

// Shape constants every size shares.
const (
	mtThreads    = 8
	mtCSDur      = 10 // chase iterations per critical section
	kvValueBytes = 1024
	kvPartitions = 16
	paperWorkers = 2
)

// paperExperiments are the paper-quick suite's experiment ids.
var paperExperiments = []string{"fig8", "fig11", "fig12", "fig15", "fig16",
	"pagerank-validate", "fig11-asym", "fig12-asym"}

// chainRun is one MemLat shape: chains chased concurrently for iters.
type chainRun struct{ chains, iters int }

var benchSizes = sizes{
	golden:      true,
	memLatLines: 1 << 20,
	memLatRuns:  []chainRun{{1, 240_000}, {4, 60_000}},

	mtSections: 6_000, mtLines: 1 << 16,

	kvPreload:     100_000,
	kvClients:     8_192,
	kvReadPool:    16,
	kvWritePool:   8,
	kvReadWarmup:  2,
	kvReadOps:     10,
	kvWriteWarmup: 1,
	kvWriteOps:    10,
	kvArrival:     6 * sim.Millisecond,

	paper: experiments.Quick,
}

var tinySizes = func() sizes {
	s := benchSizes
	s.golden = false
	s.memLatLines = 1 << 12
	s.memLatRuns = []chainRun{{1, 4_000}, {4, 1_000}}
	s.mtSections, s.mtLines = 200, 1<<10
	s.kvPreload, s.kvClients = 2_000, 64
	s.kvReadPool, s.kvWritePool = 4, 4
	s.kvReadWarmup, s.kvReadOps, s.kvWriteWarmup, s.kvWriteOps = 2, 5, 1, 5
	s.kvArrival = 50 * sim.Microsecond
	p := experiments.Quick
	p.Trials, p.Lines, p.MemLatIters = 1, 1<<12, 1_000
	p.StreamLines, p.KVOps, p.KVPreload = 1<<10, 100, 500
	p.PRVertices, p.PREdgesPerVertex, p.PRIters = 500, 4, 2
	p.AsymProfiles, p.AsymLines = []string{"optane-dcpmm"}, 1<<10
	p.AsymWriters, p.AsymBWLines = []int{1, 2}, 128
	s.paper = p
	return s
}()

// defaultSizes is what the command runs; the tests swap in tinySizes.
var defaultSizes = benchSizes

// workloads is the benchmark's workload registry, in run order.
var workloads = []workload{
	{"memlat-validate", "MemLat Conf_2 vs Conf_1 on three testbeds: the cache miss/fill path does the work (Figs. 11/12)", 1, memlatUnits},
	{"lock-handoff", "8 threads, one lock, short critical sections: coroutine handoff and sync-epoch delay propagation dominate (sec. 4.5)", 1, lockUnits},
	{"kv-read", "closed-loop zipfian read-mostly traffic on a 100k-key KV store: workload engine, kvstore and prefetch-driven inserts", 1, kvReadUnits},
	{"kv-write-observed", "open-loop write-heavy traffic under optane-dcpmm with ledger and vtprof attached: store model, throttle and obs paths", 1, kvWriteUnits},
	{"paper-quick", "the quick-scale paper suite on the 2-worker runner: runner/experiments breadth incl. STREAM, PageRank, fig16", paperWorkers, paperUnits},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// testbed is one of the paper's three validation machines.
type testbed struct {
	label  string
	preset machine.Preset
}

var testbeds = []testbed{
	{"sandy-bridge", machine.XeonE5_2450},
	{"ivy-bridge", machine.XeonE5_2660v2},
	{"haswell", machine.XeonE5_2650v3},
}

// validationQuartz is the emulator configuration of the paper's validation
// experiments: the paper's bounded maximum epoch with a small minimum epoch
// and the library init cost suppressed, emulating nvmNS.
func validationQuartz(nvmNS float64) core.Config {
	return core.Config{
		NVMLatency: sim.FromNanos(nvmNS),
		MaxEpoch:   2 * sim.Millisecond,
		MinEpoch:   10 * sim.Microsecond,
		InitCycles: 1,
	}
}

// pairModes are the two sides of a validation pair, Conf_2 first.
var pairModes = []struct {
	mode bench.Mode
	conf int
}{{bench.PhysicalRemote, 2}, {bench.Emulated, 1}}

func memlatUnits(sz sizes, seed int64) []unit {
	var us []unit
	for _, tb := range testbeds {
		for _, cr := range sz.memLatRuns {
			pair := fmt.Sprintf("%s/%dx%d", tb.label, cr.chains, cr.iters)
			for _, pm := range pairModes {
				cfg := bench.MemLatConfig{Lines: sz.memLatLines, Chains: cr.chains, Iters: cr.iters, Seed: seed}
				env := bench.EnvConfig{Preset: tb.preset, Mode: pm.mode}
				if pm.mode == bench.Emulated {
					env.Quartz = validationQuartz(bench.RemoteLatNS(tb.preset))
				}
				us = append(us, unit{
					name: fmt.Sprintf("%s/conf%d", pair, pm.conf), pair: pair, conf: pm.conf,
					run: func(ph *phaser) (outcome, error) { return runMemLat(ph, env, cfg) },
				})
			}
		}
	}
	return us
}

func runMemLat(ph *phaser, envCfg bench.EnvConfig, cfg bench.MemLatConfig) (outcome, error) {
	ph.enter(phaseBuild, "bench.NewEnv")
	env, err := bench.NewEnv(envCfg)
	if err != nil {
		return outcome{}, err
	}
	cfg.Node = env.AllocNode()
	ph.enter(phaseBuild, "bench.BuildMemLat")
	ml, err := bench.BuildMemLat(env.Proc, cfg)
	if err != nil {
		return outcome{}, err
	}
	ph.enter(phaseMeasure, "bench.Env.Run")
	var ct sim.Time
	err = env.Run(func(e *bench.Env, th *simos.Thread) {
		start := th.Now()
		ml.Run(th)
		e.CloseEpoch(th)
		ct = th.Now() - start
	})
	ph.enter(phaseCollect, "stats")
	if err != nil {
		return outcome{}, err
	}
	c := envCounts(env)
	if err := c.expect("cache.l1.accesses", int64(cfg.Iters)*int64(cfg.Chains)); err != nil {
		return outcome{}, err
	}
	return outcome{ct: ct, counts: c, sim: c.sim("cache.l1.accesses", "core.epochs", "mem.reads").with("ct_fs", int64(ct))}, nil
}

func lockUnits(sz sizes, seed int64) []unit {
	var us []unit
	for _, tb := range testbeds[:2] { // Sandy Bridge and Ivy Bridge, as in Fig. 13
		for _, pm := range pairModes {
			env := bench.EnvConfig{Preset: tb.preset, Mode: pm.mode, Lookahead: 2 * sim.Microsecond}
			if pm.mode == bench.Emulated {
				q := validationQuartz(bench.RemoteLatNS(tb.preset))
				q.MaxEpoch = 10 * sim.Millisecond
				env.Quartz = q
			}
			cfg := bench.MTConfig{Threads: mtThreads, Sections: sz.mtSections, CSDur: mtCSDur,
				Lines: sz.mtLines, Seed: seed}
			us = append(us, unit{
				name: fmt.Sprintf("%s/conf%d", tb.label, pm.conf), pair: tb.label, conf: pm.conf,
				run: func(ph *phaser) (outcome, error) { return runLock(ph, env, cfg) },
			})
		}
	}
	return us
}

func runLock(ph *phaser, envCfg bench.EnvConfig, cfg bench.MTConfig) (outcome, error) {
	ph.enter(phaseBuild, "bench.NewEnv")
	env, err := bench.NewEnv(envCfg)
	if err != nil {
		return outcome{}, err
	}
	cfg.Node = env.AllocNode()
	ph.enter(phaseMeasure, "bench.RunMultiThreaded")
	var res bench.MTResult
	err = env.Run(func(e *bench.Env, th *simos.Thread) {
		var rerr error
		if res, rerr = bench.RunMultiThreaded(e, th, cfg); rerr != nil {
			th.Failf("%v", rerr)
		}
	})
	ph.enter(phaseCollect, "stats")
	if err != nil {
		return outcome{}, err
	}
	c := envCounts(env)
	if err := c.expect("cache.l1.accesses", int64(cfg.Threads)*int64(cfg.Sections)*int64(cfg.CSDur+cfg.OutDur)); err != nil {
		return outcome{}, err
	}
	return outcome{ct: res.CT, counts: c,
		sim: c.sim("cache.l1.accesses", "core.epochs", "core.sync_epochs", "sim.dispatches").with("ct_fs", int64(res.CT))}, nil
}

// kvMachine is the scaled Sandy Bridge the KV experiments run on: a 2 MiB
// L3 keeps the store's upper tree levels resident while values miss, and 4x
// channel bandwidth keeps it latency-bound.
func kvMachine() machine.Config {
	cfg := machine.PresetConfig(machine.XeonE5_2450)
	cfg.L3.SizeBytes = 2 << 20
	cfg.L3.Ways = 16
	cfg.Mem.ChannelBandwidth *= 4
	return cfg
}

// kvQuartz is the traffic experiments' emulator configuration: the minimum
// epoch is raised to 50 us so sub-microsecond critical sections amortize.
func kvQuartz(nvmNS float64) core.Config {
	q := validationQuartz(nvmNS)
	q.MinEpoch = 50 * sim.Microsecond
	return q
}

func kvReadUnits(sz sizes, seed int64) []unit {
	mach := kvMachine()
	return []unit{{name: "read-mostly/600ns", run: func(ph *phaser) (outcome, error) {
		return runKV(ph, sz, kvRun{
			env:  bench.EnvConfig{Machine: &mach, Mode: bench.Emulated, Quartz: kvQuartz(600), Lookahead: 2 * sim.Microsecond},
			mix:  "read-mostly",
			pool: sz.kvReadPool, warmup: sz.kvReadWarmup, ops: sz.kvReadOps,
			seed: uint64(seed),
		})
	}}}
}

func kvWriteUnits(sz sizes, seed int64) []unit {
	return []unit{{name: "write-heavy/optane-dcpmm", run: func(ph *phaser) (outcome, error) {
		prof, err := machine.NVMProfileByName("optane-dcpmm")
		if err != nil {
			return outcome{}, err
		}
		mach := kvMachine()
		prof.ApplyToMem(&mach)
		q := kvQuartz(prof.ReadLatency.Nanoseconds())
		q.NVMWriteLatency = prof.WriteLatency
		q.NVMBandwidth = prof.ReadBandwidth
		q.NVMWriteBandwidth = prof.WriteBandwidth
		// The curve is indexed by registered threads, which include the
		// non-serving main thread: prepend the 1-writer entry, as fig11-asym
		// does, so T pool threads land on entry T-1.
		curve := prof.WriteBandwidthByThreads
		q.WriteBandwidthByThreads = append([]float64{curve[0]}, curve...)
		q.Observer = obs.New(0)
		if err := q.Observer.AttachSink(obs.NewWriterSink(io.Discard, obs.FormatJSONL), 0); err != nil {
			return outcome{}, err
		}
		return runKV(ph, sz, kvRun{
			env: bench.EnvConfig{Machine: &mach, Mode: bench.Emulated, Quartz: q,
				Lookahead: 2 * sim.Microsecond, Profiler: vtprof.New()},
			mix:  "write-heavy",
			pool: sz.kvWritePool, warmup: sz.kvWriteWarmup, ops: sz.kvWriteOps,
			arrival: sz.kvArrival,
			seed:    uint64(seed),
		})
	}}}
}

// kvRun is one traffic scenario against a freshly preloaded KV store.
type kvRun struct {
	env               bench.EnvConfig
	mix               string
	pool, warmup, ops int
	arrival           sim.Time
	seed              uint64
}

func runKV(ph *phaser, sz sizes, r kvRun) (outcome, error) {
	mix, ok := traffic.MixByName(r.mix)
	if !ok {
		return outcome{}, fmt.Errorf("unknown mix %q", r.mix)
	}
	ph.enter(phaseBuild, "bench.NewEnv")
	env, err := bench.NewEnv(r.env)
	if err != nil {
		return outcome{}, err
	}
	ph.enter(phaseBuild, "kvstore.New")
	alloc := func(size uintptr) (uintptr, error) { return env.Proc.MallocOnNode(size, env.AllocNode()) }
	store, err := kvstore.New(env.Proc, kvstore.Config{Partitions: kvPartitions, Alloc: alloc})
	if err != nil {
		return outcome{}, err
	}
	keySpace := uint64(sz.kvPreload)
	target, err := kvstore.NewTrafficTarget(store, keySpace, kvValueBytes, alloc)
	if err != nil {
		return outcome{}, err
	}
	ph.enter(phaseBuild, "workload.NewZipfian")
	keys, err := traffic.NewZipfian(keySpace, traffic.DefaultTheta, true)
	if err != nil {
		return outcome{}, err
	}
	rec := r.env.Quartz.Observer
	ph.enter(phaseMeasure, "bench.Env.Run")
	var res traffic.ScenarioResult
	err = env.Run(func(e *bench.Env, th *simos.Thread) {
		ph.enter(phasePreload, "kvstore.TrafficTarget.Preload")
		if perr := target.Preload(th, keySpace); perr != nil {
			th.Failf("%v", perr)
		}
		ph.enter(phaseMeasure, "workload.RunScenario")
		var rerr error
		res, rerr = traffic.RunScenario(th, target, traffic.ScenarioConfig{
			Name:          r.mix,
			Clients:       sz.kvClients,
			PoolThreads:   r.pool,
			WarmupOps:     r.warmup,
			MeasureOps:    r.ops,
			Keys:          keys,
			Mix:           mix,
			Seed:          r.seed,
			ArrivalPeriod: r.arrival,
			CloseEpoch:    e.CloseEpoch,
			Obs:           rec,
		})
		if rerr != nil {
			th.Failf("%v", rerr)
		}
	})
	ph.enter(phaseCollect, "stats")
	if err != nil {
		return outcome{}, err
	}
	if err := rec.CloseSink(); err != nil {
		return outcome{}, fmt.Errorf("ledger sink: %w", err)
	}
	c := envCounts(env)
	c["workload.ops"] = float64(res.Ops)
	c["obs.ledger_records"] = float64(rec.Total())
	if err := c.expect("workload.ops", int64(sz.kvClients)*int64(r.ops)); err != nil {
		return outcome{}, err
	}
	_, _, p99 := res.Quantiles()
	return outcome{ct: res.CT, counts: c,
		sim: c.sim("workload.ops", "cache.l1.accesses", "core.epochs", "obs.ledger_records").
			with("ct_fs", int64(res.CT)).
			with("reads", res.Counts[traffic.OpRead]).
			with("updates", res.Counts[traffic.OpUpdate]).
			with("p99_ns", int64(p99))}, nil
}

func paperUnits(sz sizes, _ int64) []unit {
	return []unit{{name: "suite", run: func(ph *phaser) (outcome, error) { return runPaper(ph, sz) }}}
}

// paperDecompositions is how many times paper-quick's set-up decomposes
// the suite into jobs: once takes ~0.1 ms, too short to time on a shared
// host.
const paperDecompositions = 32

// runPaper runs the quick-scale paper suite the way quartzbench does, with
// every job wrapped in a span so a traced run times each one.
func runPaper(ph *phaser, sz sizes) (outcome, error) {
	ph.enter(phaseBuild, "experiments.Jobs")
	var sets []experiments.JobSet
	for range paperDecompositions {
		sets = sets[:0]
		for _, id := range paperExperiments {
			js, err := experiments.Jobs(id, sz.paper)
			if err != nil {
				return outcome{}, err
			}
			sets = append(sets, js)
		}
	}
	jobs := 0
	for _, js := range sets {
		for i := range js.Jobs {
			js.Jobs[i].Run = ph.wrapJob(js.ID+"/"+js.Jobs[i].Name, js.Jobs[i].Run)
		}
		jobs += len(js.Jobs)
	}
	ph.enter(phaseMeasure, "runner.SuiteSets")
	runs, err := runner.SuiteSets(context.Background(), sets, runner.Config{Workers: paperWorkers})
	ph.enter(phaseCollect, "experiments.Table.Render")
	if err != nil {
		return outcome{}, err
	}
	out := outcome{sim: map[string]string{}, counts: counts{}}
	for _, r := range runs {
		if r.Err != nil {
			return outcome{}, fmt.Errorf("%s: %w", r.ID, r.Err)
		}
		for _, j := range r.Jobs {
			if j.Status == runner.StatusOK {
				out.counts["runner.jobs"]++
			}
		}
		sum := sha256.Sum256([]byte(r.Table.Render()))
		out.sim[r.ID+".sha256"] = hex.EncodeToString(sum[:])
	}
	if err := out.counts.expect("runner.jobs", int64(jobs)); err != nil {
		return outcome{}, err
	}
	out.sim["jobs"] = strconv.Itoa(jobs)
	return out, nil
}
