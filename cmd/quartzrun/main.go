// Command quartzrun executes one workload under configurable Quartz
// emulation and prints its measurements plus the emulator's §3.2 statistics
// feedback — the moral equivalent of the real project's
// `LD_PRELOAD=libnvmemul.so ./app` with an nvmemul.ini.
//
// Usage:
//
//	quartzrun -workload memlat -nvm-lat 500
//	quartzrun -workload kvstore -threads 4 -nvm-lat 300 -nvm-bw 2e9
//	quartzrun -workload pagerank -mode physical-remote
//	quartzrun -workload multilat -two-memory -nvm-lat 400
//	quartzrun -workload multithreaded -threads 4 -trace trace.json -metrics
//	quartzrun -workload kvstore -iters 2000000 -serve :8077 -ledger-out run.jsonl
//
// The observability flags (-trace, -metrics, -serve, -ledger-out, -vtprof,
// ...) are shared with quartzbench and documented in internal/cli; -vtprof
// writes the run's profile as run.pb.gz plus run.folded. Every flag is
// validated before the environment is built: a bad value exits 2, a failed
// run exits 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"

	"github.com/quartz-emu/quartz/internal/apps/graph500"
	"github.com/quartz-emu/quartz/internal/apps/kvstore"
	"github.com/quartz-emu/quartz/internal/apps/pagerank"
	"github.com/quartz-emu/quartz/internal/bench"
	"github.com/quartz-emu/quartz/internal/cli"
	"github.com/quartz-emu/quartz/internal/core"
	"github.com/quartz-emu/quartz/internal/machine"
	"github.com/quartz-emu/quartz/internal/obs/vtprof"
	"github.com/quartz-emu/quartz/internal/sim"
	"github.com/quartz-emu/quartz/internal/simos"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workloads lists the -workload names dispatch runs.
var workloads = []string{"memlat", "stream", "multithreaded", "multilat", "kvstore", "pagerank", "bfs"}

type flags struct {
	workload   string
	presetName string
	modeName   string
	nvmLatNS   float64
	nvmBW      float64
	pflushNS   float64
	nvmWriteNS float64
	nvmProfile string
	threads    int
	iters      int
	lines      int
	minEpoch   float64 // ms
	maxEpoch   float64 // ms
	twoMemory  bool
	injectOff  bool
	modelName  string
	seed       int64
	configPath string
	obs        cli.Obs

	// Resolved by validate.
	ini    core.Config // loaded from -config
	preset machine.Preset
	mode   bench.Mode
	model  core.Model
	prof   *vtprof.Profiler
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("quartzrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var f flags
	fs.StringVar(&f.workload, "workload", "memlat", strings.Join(workloads, "|"))
	fs.StringVar(&f.presetName, "preset", "ivybridge", "sandybridge|ivybridge|haswell")
	fs.StringVar(&f.modeName, "mode", "emulated", "native|physical-remote|emulated")
	fs.Float64Var(&f.nvmLatNS, "nvm-lat", 500, "target NVM latency (ns)")
	fs.Float64Var(&f.nvmBW, "nvm-bw", 0, "NVM bandwidth cap (bytes/s, 0 = unthrottled)")
	fs.Float64Var(&f.pflushNS, "pflush-lat", 0, "pflush write delay (ns, 0 = NVM-DRAM gap)")
	fs.Float64Var(&f.nvmWriteNS, "nvm-write", 0, "target NVM store latency (ns) for the asymmetric store model (0 = symmetric)")
	fs.StringVar(&f.nvmProfile, "nvm-profile", "", "calibrated NVM profile (e.g. optane-dcpmm, pcm): sets read/write latency, bandwidth and access granularity")
	fs.IntVar(&f.threads, "threads", 1, "worker threads")
	fs.IntVar(&f.iters, "iters", 100_000, "iterations / operations")
	fs.IntVar(&f.lines, "lines", 1<<20, "working-set cache lines")
	fs.Float64Var(&f.minEpoch, "min-epoch", 0.1, "minimum epoch (ms)")
	fs.Float64Var(&f.maxEpoch, "max-epoch", 10, "maximum epoch (ms)")
	fs.BoolVar(&f.twoMemory, "two-memory", false, "DRAM+NVM virtual topology (§3.3)")
	fs.BoolVar(&f.injectOff, "switch-off-injection", false, "compute but do not inject delays (§3.2)")
	fs.StringVar(&f.modelName, "model", "stall", "latency model: stall (Eq.2) | simple (Eq.1)")
	fs.Int64Var(&f.seed, "seed", 42, "workload seed")
	fs.StringVar(&f.configPath, "config", "", "nvmemul.ini-style config file (overrides latency/bandwidth/epoch/model flags)")
	f.obs.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Every flag is validated upfront like a flag-parse error (exit 2): a
	// typo must fail in milliseconds, before any environment is built.
	if err := f.validate(); err != nil {
		fmt.Fprintf(stderr, "quartzrun: %v\n", err)
		return 2
	}
	// Virtual-time profiler: one profiler for the whole run; every simulated
	// nanosecond the workload spends is attributed to (thread, phase,
	// category).
	var src cli.Sources
	if f.obs.VTProf != "" {
		f.prof = vtprof.New()
		src.VTProf = func() ([]byte, error) { return f.prof.Snapshot().PprofBytes() }
		src.Profiles = func(yield func(string, *vtprof.Profile) bool) { yield("run", f.prof.Snapshot()) }
	}
	defer f.obs.Close()
	if err := f.obs.Start(stderr, src); err != nil {
		fmt.Fprintf(stderr, "quartzrun: %v\n", err)
		return 2
	}
	if err := execute(&f, stdout); err != nil {
		fmt.Fprintf(stderr, "quartzrun: %v\n", err)
		return 1
	}
	if err := f.obs.Finish(context.Background(), stdout); err != nil {
		fmt.Fprintf(stderr, "quartzrun: %v\n", err)
		return 1
	}
	return 0
}

// validate rejects bad flag values, resolves the named ones and loads the
// -config file. The profile error names the known profiles.
func (f *flags) validate() error {
	var err error
	if f.preset, err = machine.PresetByName(f.presetName); err != nil {
		return fmt.Errorf("-preset: %w", err)
	}
	if f.mode, err = parseMode(f.modeName); err != nil {
		return fmt.Errorf("-mode: %w", err)
	}
	switch f.modelName {
	case "stall":
		f.model = core.ModelStall
	case "simple":
		f.model = core.ModelSimple
	default:
		return fmt.Errorf("-model: unknown model %q (stall|simple)", f.modelName)
	}
	if !slices.Contains(workloads, f.workload) {
		return fmt.Errorf("-workload: unknown workload %q (%s)", f.workload, strings.Join(workloads, "|"))
	}
	// !(v >= 0) rejects NaN as well as negatives; an epoch must also be
	// nonzero.
	for _, n := range []struct {
		flag, bound string
		v           float64
	}{
		{"-nvm-lat", ">= 0", f.nvmLatNS},
		{"-nvm-bw", ">= 0", f.nvmBW},
		{"-pflush-lat", ">= 0", f.pflushNS},
		{"-nvm-write", ">= 0", f.nvmWriteNS},
		{"-min-epoch", "> 0", f.minEpoch},
		{"-max-epoch", "> 0", f.maxEpoch},
	} {
		if !(n.v >= 0) || math.IsInf(n.v, 1) || (n.v == 0 && n.bound == "> 0") {
			return fmt.Errorf("%s %g: must be a finite number %s", n.flag, n.v, n.bound)
		}
	}
	if min(f.threads, f.iters, f.lines) < 1 {
		return fmt.Errorf("-threads %d, -iters %d, -lines %d: each must be >= 1", f.threads, f.iters, f.lines)
	}
	if f.configPath != "" {
		if f.ini, err = core.LoadINIFile(f.configPath); err != nil {
			return fmt.Errorf("-config: %w", err)
		}
	}
	if f.nvmProfile != "" {
		names, err := cli.NVMProfiles(f.nvmProfile)
		if err != nil {
			return err
		}
		if len(names) > 1 {
			return fmt.Errorf("-nvm-profile %q: quartzrun runs a single profile, not a list", f.nvmProfile)
		}
		f.nvmProfile = names[0]
	}
	return f.obs.Validate()
}

func parseMode(s string) (bench.Mode, error) {
	switch s {
	case "native":
		return bench.Native, nil
	case "physical-remote":
		return bench.PhysicalRemote, nil
	case "emulated":
		return bench.Emulated, nil
	default:
		return 0, fmt.Errorf("unknown mode %q", s)
	}
}

// execute builds the environment the validated flags describe and runs the
// workload on it.
func execute(f *flags, stdout io.Writer) error {
	q := core.Config{
		NVMLatency:   sim.FromNanos(f.nvmLatNS),
		NVMBandwidth: f.nvmBW,
		WriteLatency: sim.FromNanos(f.pflushNS),
		MinEpoch:     sim.Time(f.minEpoch * float64(sim.Millisecond)),
		MaxEpoch:     sim.Time(f.maxEpoch * float64(sim.Millisecond)),
		Model:        f.model,
		TwoMemory:    f.twoMemory,
		InjectionOff: f.injectOff,
	}
	if f.configPath != "" {
		q = f.ini
	}

	// Asymmetric store model: a profile overlays calibrated read/write
	// latencies, bandwidth caps, the write-collapse curve and the device
	// access granularity; -nvm-write then overrides the store latency alone.
	// Both apply after -config so a loaded ini can be narrowed per run.
	var mc *machine.Config
	if f.nvmProfile != "" {
		prof, _ := machine.NVMProfileByName(f.nvmProfile) // validated upfront
		q.NVMLatency = prof.ReadLatency
		q.NVMWriteLatency = prof.WriteLatency
		q.NVMBandwidth = prof.ReadBandwidth
		q.NVMWriteBandwidth = prof.WriteBandwidth
		q.WriteBandwidthByThreads = prof.WriteBandwidthByThreads
		c := machine.PresetConfig(f.preset)
		prof.ApplyToMem(&c)
		mc = &c
	}
	if f.nvmWriteNS > 0 {
		q.NVMWriteLatency = sim.FromNanos(f.nvmWriteNS)
	}
	q.Observer = f.obs.Recorder()

	env, err := bench.NewEnv(bench.EnvConfig{
		Preset: f.preset, Machine: mc, Mode: f.mode, Quartz: q,
		Lookahead: 2 * sim.Microsecond, Profiler: f.prof,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "machine: %s  mode: %s  workload: %s\n", env.Mach.Config().Name, f.mode, f.workload)
	if f.mode == bench.Emulated {
		fmt.Fprintf(stdout, "emulator: %s\n", env.Emu)
	}

	if err := dispatch(env, f, stdout); err != nil {
		return err
	}

	if env.Emu != nil {
		st := env.Emu.Stats()
		fmt.Fprintf(stdout, "\nemulator stats: epochs=%d (max=%d sync=%d) injected=%v overhead=%v\n",
			st.Epochs, st.MaxEpochs, st.SyncEpochs, st.Injected, st.Overhead)
		if env.Emu.Config().NVMWriteLatency > 0 {
			fmt.Fprintf(stdout, "store model: store-misses=%d write-delay=%v\n", st.StoreMisses, st.WriteDelay)
		}
		fmt.Fprintf(stdout, "feedback: %s\n", st.Suggestion())
	}
	return nil
}

func dispatch(env *bench.Env, f *flags, stdout io.Writer) error {
	switch f.workload {
	case "memlat":
		ml, err := bench.BuildMemLat(env.Proc, bench.MemLatConfig{
			Lines: max(2, f.lines), Chains: f.threads, Iters: f.iters,
			Node: env.AllocNode(), Seed: f.seed,
		})
		if err != nil {
			return err
		}
		return env.Run(func(e *bench.Env, th *simos.Thread) {
			start := th.Now()
			res := ml.Run(th)
			e.CloseEpoch(th)
			ct := th.Now() - start
			fmt.Fprintf(stdout, "memlat: CT=%v  per-iteration=%.1fns  accesses=%d\n",
				ct, (ct / sim.Time(f.iters)).Nanoseconds(), res.Accesses)
		})
	case "stream":
		return env.Run(func(e *bench.Env, th *simos.Thread) {
			res, err := bench.RunStream(e, th, bench.StreamConfig{
				Lines: f.lines, Threads: max(1, f.threads), Node: env.AllocNode(),
			})
			if err != nil {
				th.Failf("%v", err)
			}
			fmt.Fprintf(stdout, "stream: CT=%v  copy=%.2f GB/s\n", res.CT, res.BytesPerSec/1e9)
		})
	case "multithreaded":
		return env.Run(func(e *bench.Env, th *simos.Thread) {
			res, err := bench.RunMultiThreaded(e, th, bench.MTConfig{
				Threads: max(2, f.threads), Sections: max(1, f.iters/100),
				CSDur: 100, OutDur: 100, Lines: max(2, f.lines/4),
				Node: env.AllocNode(), Seed: f.seed,
			})
			if err != nil {
				th.Failf("%v", err)
			}
			fmt.Fprintf(stdout, "multithreaded: CT=%v\n", res.CT)
		})
	case "multilat":
		if env.Emu == nil || !env.Emu.Config().TwoMemory {
			return fmt.Errorf("multilat needs -mode emulated -two-memory")
		}
		ml, err := bench.BuildMultiLat(env.Proc, env.Emu, bench.MultiLatConfig{
			DRAMLines: max(2, f.lines/8), NVMLines: max(2, f.lines/16),
			DRAMBurst: 2000, NVMBurst: 1000, Seed: f.seed,
		})
		if err != nil {
			return err
		}
		return env.Run(func(e *bench.Env, th *simos.Thread) {
			start := th.Now()
			res := ml.Run(th, env.Mach.Config().LocalLat, env.Emu.Config().NVMLatency)
			e.CloseEpoch(th)
			res.CT = th.Now() - start
			fmt.Fprintf(stdout, "multilat: CT=%v  expected=%v  error=%.2f%%\n",
				res.CT, res.ExpectedCT,
				100*float64(res.CT-res.ExpectedCT)/float64(res.ExpectedCT))
		})
	case "kvstore":
		alloc := env.Proc.Malloc
		if env.Emu != nil {
			alloc = env.Emu.PMalloc
		}
		store, err := kvstore.New(env.Proc, kvstore.Config{Partitions: 16, Alloc: alloc})
		if err != nil {
			return err
		}
		return env.Run(func(e *bench.Env, th *simos.Thread) {
			res, err := kvstore.RunWorkload(store, th, kvstore.WorkloadConfig{
				Preload: f.iters / 2, Threads: max(1, f.threads),
				OpsPerThread: f.iters, Seed: uint64(f.seed),
			}, e.CloseEpoch)
			if err != nil {
				th.Failf("%v", err)
			}
			fmt.Fprintf(stdout, "kvstore: CT=%v  put/s=%.0f  get/s=%.0f\n", res.CT, res.PutsPerS, res.GetsPerS)
		})
	case "pagerank", "bfs":
		alloc := func(size uintptr) (uintptr, error) {
			return env.Proc.MallocOnNode(size, env.AllocNode())
		}
		if env.Emu != nil && env.Emu.Config().TwoMemory {
			alloc = env.Emu.PMalloc // graph in NVM
		}
		g, err := pagerank.Generate(pagerank.GenerateConfig{
			Vertices: max(1000, f.iters/10), EdgesPerVertex: 8, Seed: uint64(f.seed),
		}, alloc)
		if err != nil {
			return err
		}
		// Both apps stamp CT before the trailing epoch closes; time the
		// window through the close so the emulated delay lands inside it.
		return env.Run(func(e *bench.Env, th *simos.Thread) {
			start := th.Now()
			if f.workload == "bfs" {
				res, err := graph500.BFS(g, th, 0, alloc)
				if err != nil {
					th.Failf("%v", err)
				}
				e.CloseEpoch(th)
				res.CT = th.Now() - start
				fmt.Fprintf(stdout, "bfs: CT=%v  visited=%d  edges=%d  TEPS=%.3g\n",
					res.CT, res.Visited, res.EdgesTraversed, float64(res.EdgesTraversed)/res.CT.Seconds())
				return
			}
			res, err := pagerank.Run(g, th, pagerank.DefaultConfig(), alloc)
			if err != nil {
				th.Failf("%v", err)
			}
			e.CloseEpoch(th)
			res.CT = th.Now() - start
			fmt.Fprintf(stdout, "pagerank: CT=%v  iterations=%d  residual=%.3g\n",
				res.CT, res.Iterations, res.Error)
		})
	default:
		return fmt.Errorf("unknown workload %q", f.workload)
	}
}
