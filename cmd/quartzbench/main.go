// Command quartzbench regenerates the paper's evaluation artifacts: every
// table and figure of §4 plus the §3.2 overhead accounting and the design
// ablations, printed as text tables.
//
// Experiments are decomposed into independent sweep-point jobs and executed
// on a worker pool (internal/runner). The rendered tables are byte-identical
// for every -parallel worker count, including the serial -parallel 1 special
// case — see doc/parallelism.md. A crashed job fails its experiment (and
// the exit code) without stopping the rest of the suite.
//
// Usage:
//
//	quartzbench -list
//	quartzbench -exp fig11,fig12 -scale quick
//	quartzbench -exp all -scale full -parallel 8 -json results.jsonl -o results.txt
//	quartzbench -exp fig12 -trace trace.json -metrics-out metrics.json
//	quartzbench -exp all -scale full -serve :8077 -ledger-out run.jsonl
//
// The observability flags (-trace, -metrics, -serve, -ledger-out, -vtprof,
// ...) are shared with quartzrun and documented in internal/cli. With
// -serve, /runs reports live suite progress; -vtprof writes one profile per
// job plus the merged suite.pb.gz / suite.folded.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"iter"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"github.com/quartz-emu/quartz/internal/cli"
	"github.com/quartz-emu/quartz/internal/experiments"
	"github.com/quartz-emu/quartz/internal/obs/vtprof"
	"github.com/quartz-emu/quartz/internal/runner"
	"github.com/quartz-emu/quartz/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("quartzbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expFlag      = fs.String("exp", "all", "comma-separated experiment ids, or 'all'")
		scaleFlag    = fs.String("scale", "quick", "sweep scale: quick or full")
		outFlag      = fs.String("o", "", "also write output to this file")
		listFlag     = fs.Bool("list", false, "list experiment ids and exit")
		parallelFlag = fs.Int("parallel", 0, "concurrent jobs (0 = GOMAXPROCS, 1 = serial)")
		jsonFlag     = fs.String("json", "", "write per-job JSONL results to this file")
		progressFlag = fs.Bool("progress", false, "report job completion progress on stderr")
		trafClients  = fs.String("traffic-clients", "", "comma-separated client counts overriding the scale's traffic-* sweep (e.g. 64,256,1024)")
		trafMixes    = fs.String("traffic-mixes", "", "comma-separated mix presets overriding the scale's traffic-* sweep (read-mostly, write-heavy, scan-blend)")
		trafPool     = fs.Int("traffic-pool", 0, "serving pool threads per traffic scenario, overriding the scale (0 = scale default)")
		trafLats     = fs.String("traffic-lats", "", "comma-separated emulated NVM latencies in ns overriding the scale's traffic-* sweep (e.g. 200,600,2000)")
		nvmWrite     = fs.Float64("nvm-write", 0, "target NVM store latency in ns for the asymmetric experiments, overriding every swept profile (0 = profile default)")
		nvmProf      = fs.String("nvm-profile", "", "comma-separated NVM profile names narrowing the asymmetric sweeps (e.g. optane-dcpmm,pcm)")
		o            cli.Obs
	)
	o.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Validate flag combinations before any experiment runs, mirroring the
	// upfront -exp id validation: a misconfiguration must fail in
	// milliseconds, not after the suite.
	if err := validateFlags(*listFlag, *parallelFlag, &o); err != nil {
		fmt.Fprintf(stderr, "quartzbench: %v\n", err)
		return 2
	}

	if *listFlag {
		for _, id := range experiments.All() {
			desc, _ := experiments.Describe(id)
			fmt.Fprintf(stdout, "%-18s %s\n", id, desc)
		}
		return 0
	}

	var scale experiments.Scale
	switch *scaleFlag {
	case "quick":
		scale = experiments.Quick
	case "full":
		scale = experiments.Full
	default:
		fmt.Fprintf(stderr, "quartzbench: unknown scale %q (quick|full)\n", *scaleFlag)
		return 2
	}
	if err := applyTrafficOverrides(&scale, *trafClients, *trafMixes, *trafPool, *trafLats); err != nil {
		fmt.Fprintf(stderr, "quartzbench: %v\n", err)
		return 2
	}
	if err := applyAsymOverrides(&scale, *nvmWrite, *nvmProf); err != nil {
		fmt.Fprintf(stderr, "quartzbench: %v\n", err)
		return 2
	}

	// Validate every id before running anything, so a typo in the last id
	// doesn't waste the minutes spent running the earlier ones.
	ids := experiments.All()
	if *expFlag != "all" {
		ids = nil
		var unknown []string
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.TrimSpace(id)
			if !experiments.Known(id) {
				unknown = append(unknown, id)
				continue
			}
			ids = append(ids, id)
		}
		if len(unknown) > 0 {
			fmt.Fprintf(stderr, "quartzbench: unknown experiment(s) %q (see -list)\n", unknown)
			return 2
		}
		if len(ids) == 0 {
			fmt.Fprintln(stderr, "quartzbench: no experiments selected")
			return 2
		}
	}

	var out io.Writer = stdout
	if *outFlag != "" {
		f, err := os.Create(*outFlag)
		if err != nil {
			fmt.Fprintf(stderr, "quartzbench: %v\n", err)
			return 1
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintf(stderr, "quartzbench: closing output: %v\n", err)
			}
		}()
		out = io.MultiWriter(stdout, f)
	}

	cfg := runner.Config{Workers: *parallelFlag}

	// Observability: one shared recorder collects the whole suite — runner
	// job outcomes directly, and per-epoch ledger records from every
	// emulator the experiment jobs attach (runner.Suite sets cfg.Recorder as
	// the scale's Observer). -progress also attaches one so its lines can
	// report live emulation rates. -vtprof sets the scale's Profiles, one
	// virtual-time profiler per job. The experiments attach both observers
	// to every simulation they build; neither moves a simulated clock.
	src := cli.Sources{Recorder: *progressFlag}
	if o.Serve != "" {
		cfg.Status = runner.NewStatusBoard()
		src.Status = cfg.Status
	}
	if o.VTProf != "" {
		suite := vtprof.NewSuite()
		scale.Profiles = suite
		src.VTProf = suite.PprofBytes
		src.Profiles = suiteProfiles(suite)
	}
	defer o.Close()
	if err := o.Start(stderr, src); err != nil {
		fmt.Fprintf(stderr, "quartzbench: %v\n", err)
		return 2
	}
	cfg.Recorder = o.Recorder()
	if *jsonFlag != "" {
		jf, err := os.Create(*jsonFlag)
		if err != nil {
			fmt.Fprintf(stderr, "quartzbench: %v\n", err)
			return 1
		}
		defer func() {
			if err := jf.Close(); err != nil {
				fmt.Fprintf(stderr, "quartzbench: closing json output: %v\n", err)
			}
		}()
		cfg.Sink = runner.NewSink(jf)
	}
	if *progressFlag {
		// Each progress line carries the recorder's live aggregates: epochs
		// closed so far, the wall-clock epoch-close rate, and how much virtual
		// delay the emulators have injected (with its share of the computed
		// delay — below 100% means overhead amortization withheld some).
		progressStart := time.Now()
		reg := cfg.Recorder.Registry()
		epochs := reg.Counter("quartz.epochs.closed")
		computed := reg.Counter("quartz.delay.computed_ns")
		injected := reg.Counter("quartz.delay.injected_ns")
		cfg.OnProgress = func(p runner.Progress) {
			elapsed := time.Since(progressStart).Seconds()
			if elapsed <= 0 {
				elapsed = 1e-9
			}
			ep := epochs.Value()
			injNs, compNs := injected.Value(), computed.Value()
			injShare := 100.0
			if compNs > 0 {
				injShare = float64(injNs) / float64(compNs) * 100
			}
			fmt.Fprintf(stderr, "[%d/%d] %s %s (%.1fs, %d failed) | %d epochs (%.0f/s), %.1fms delay injected (%.0f%% of computed)\n",
				p.Done, p.Total, p.Last.JobID, p.Last.Status, p.Last.Wall.Seconds(), p.Failed,
				ep, float64(ep)/elapsed, float64(injNs)/1e6, injShare)
		}
	}

	// Ctrl-C cancels the suite: running jobs are abandoned, every unfinished
	// job is recorded as canceled, and whatever assembled cleanly still
	// renders.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	fmt.Fprintf(out, "quartz evaluation suite (scale=%s, trials=%d)\n\n", *scaleFlag, scale.Trials)
	start := time.Now()
	runs, err := runner.Suite(ctx, ids, scale, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "quartzbench: %v\n", err)
		return 1
	}
	exit := 0
	for _, er := range runs {
		if er.Err != nil {
			fmt.Fprintf(stderr, "quartzbench: %s: %v\n", er.ID, er.Err)
			exit = 1
			continue
		}
		fmt.Fprint(out, er.Table.Render())
		fmt.Fprintf(out, "(%s in %.1fs)\n\n", er.ID, er.Wall.Seconds())
	}
	if *progressFlag {
		fmt.Fprintf(stderr, "suite finished in %.1fs\n", time.Since(start).Seconds())
	}

	if err := o.Finish(ctx, stdout); err != nil {
		fmt.Fprintf(stderr, "quartzbench: %v\n", err)
		return 1
	}
	return exit
}

// validateFlags rejects invalid flag values and combinations upfront with
// clear errors.
func validateFlags(list bool, parallel int, o *cli.Obs) error {
	switch {
	case parallel < 0:
		return fmt.Errorf("-parallel %d: must be >= 0 (0 = GOMAXPROCS, 1 = serial)", parallel)
	case list && o.Serve != "":
		return fmt.Errorf("-serve makes no sense with -list (nothing runs)")
	}
	return o.Validate()
}

// applyTrafficOverrides narrows the scale's traffic sweep from the
// -traffic-clients / -traffic-mixes / -traffic-pool / -traffic-lats flags,
// validating every value upfront so a typo fails before any experiment runs.
func applyTrafficOverrides(scale *experiments.Scale, clientsCSV, mixesCSV string, pool int, latsCSV string) error {
	if clientsCSV != "" {
		var clients []int
		for _, s := range strings.Split(clientsCSV, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n <= 0 {
				return fmt.Errorf("-traffic-clients: %q is not a positive client count", s)
			}
			clients = append(clients, n)
		}
		scale.TrafficClients = clients
	}
	if mixesCSV != "" {
		var mixes []string
		for _, s := range strings.Split(mixesCSV, ",") {
			name := strings.TrimSpace(s)
			if _, ok := workload.MixByName(name); !ok {
				return fmt.Errorf("-traffic-mixes: unknown mix %q (known: %s)",
					name, strings.Join(workload.PresetNames(), ", "))
			}
			mixes = append(mixes, name)
		}
		scale.TrafficMixes = mixes
	}
	if latsCSV != "" {
		var lats []float64
		for _, s := range strings.Split(latsCSV, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil || !(v > 0) || math.IsInf(v, 1) {
				return fmt.Errorf("-traffic-lats: %q is not a finite positive latency in ns", s)
			}
			lats = append(lats, v)
		}
		scale.TrafficLatsNS = lats
	}
	switch {
	case pool < 0:
		return fmt.Errorf("-traffic-pool %d: must be >= 0 (0 = scale default)", pool)
	case pool > 0:
		scale.TrafficPool = pool
	}
	return nil
}

// profFileName maps a job key ("traffic-sweep/read-mostly/lat=600ns/...")
// to a flat, filesystem-safe file stem.
func profFileName(job string) string {
	var b strings.Builder
	b.Grow(len(job))
	for i := 0; i < len(job); i++ {
		c := job[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '-', c == '_', c == '=':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// suiteProfiles yields what -vtprof writes for a suite: one profile per
// job, then suite, merging every job (the file `go tool pprof` and
// flame-graph tooling consume directly).
func suiteProfiles(suite *vtprof.Suite) iter.Seq2[string, *vtprof.Profile] {
	return func(yield func(string, *vtprof.Profile) bool) {
		for _, job := range suite.Jobs() {
			if !yield(profFileName(job), suite.JobProfile(job)) {
				return
			}
		}
		yield("suite", suite.Merged())
	}
}

// applyAsymOverrides narrows the asymmetric-model sweep from the
// -nvm-write / -nvm-profile flags, resolving every profile name against the
// machine registry upfront so a typo fails before any experiment runs.
func applyAsymOverrides(scale *experiments.Scale, nvmWriteNS float64, profilesCSV string) error {
	if !(nvmWriteNS >= 0) || math.IsInf(nvmWriteNS, 1) {
		return fmt.Errorf("-nvm-write %g: must be a finite number >= 0 ns (0 = profile default)", nvmWriteNS)
	}
	if nvmWriteNS > 0 {
		scale.AsymWriteLatNS = nvmWriteNS
	}
	if profilesCSV != "" {
		profs, err := cli.NVMProfiles(profilesCSV)
		if err != nil {
			return err
		}
		scale.AsymProfiles = profs
	}
	return nil
}
