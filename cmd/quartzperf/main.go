// Command quartzperf is the repository's benchmark: five workloads that each
// stress different layers of the emulator, composed from the public APIs of
// internal/bench, internal/apps/kvstore, internal/workload and
// internal/runner. It times its own calls into those layers on the host,
// checks every simulated result, and prints each metric by name with its
// unit. See README.md for the workloads, metrics and bounds.
//
// Each workload runs in a fresh child process (the command re-executes
// itself), so peak memory and set-up time belong to that workload alone and
// a crash counts as a failure instead of ending the suite. A workload runs
// one warm-up pass over its units, then repeats passes for -seconds and
// reports per-pass medians of host times normalized by a reference kernel
// (ref.go). The last line of output for each workload is one JSON object:
// correct, attempted, failed and metrics.
//
// Usage:
//
//	quartzperf -workload all -seed 1
//	quartzperf -workload kv-read -seed 3 -seconds 10
//	quartzperf -workload lock-handoff -trace 1 -trace-dir /tmp/qp
//	quartzperf -workload all -seed 1 -update
package main

import (
	"bufio"
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// expectedJSON holds every unit's simulated outputs for seed 1 at bench
// size; paper-quick's apply to every seed.
//
//go:embed testdata/expected.json
var expectedJSON []byte

// expectedFile is where -update writes, relative to the repository root.
const expectedFile = "cmd/quartzperf/testdata/expected.json"

// childEnv marks a re-executed child: it runs its one workload in-process
// and prints a childReport.
const childEnv = "QUARTZPERF_CHILD"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workloads []workload
	seed      int64
	seconds   float64
	trace     bool
	traceDir  string
	sizes     sizes
	update    bool
	want      map[string]map[string]simOut
}

// expected returns the reference outputs workload name is checked against,
// or nil when the run checks invariants and repeat-determinism only.
func (o options) expected(name string) map[string]simOut {
	if o.update || !o.sizes.golden || (o.seed != 1 && name != "paper-quick") {
		return nil
	}
	if w := o.want[name]; w != nil {
		return w
	}
	return map[string]simOut{} // every unit then fails as missing
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("quartzperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl       = fs.String("workload", "all", "workload name, comma-separated names, or 'all'")
		seed     = fs.Int64("seed", 1, "seed of every generated input (paper-quick's experiment seeds are fixed)")
		secs     = fs.Float64("seconds", 10, "measured seconds per workload, after one warm-up pass")
		trace    = fs.Int("trace", 0, "0: report end-to-end metrics; 1: traced run reporting per-layer metrics")
		traceDir = fs.String("trace-dir", ".bench_build/quartzperf-trace", "where a traced run writes <workload>.cpu.pprof and <workload>.spans.jsonl")
		update   = fs.Bool("update", false, "rewrite "+expectedFile+" from this run (seed 1, bench size)")
	)
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	o := options{seed: *seed, seconds: *secs, trace: *trace == 1, traceDir: *traceDir, sizes: defaultSizes, update: *update}
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case *trace != 0 && *trace != 1:
		return o, fmt.Errorf("-trace %d: must be 0 or 1", *trace)
	case !(*secs > 0):
		return o, fmt.Errorf("-seconds %g: must be positive", *secs)
	case *trace == 1 && *traceDir == "":
		return o, errors.New("-trace 1 needs -trace-dir")
	}
	if o.update && (o.seed != 1 || o.trace || !o.sizes.golden) {
		return o, errors.New("-update needs -seed 1 and -trace 0")
	}
	if *wl == "all" {
		o.workloads = workloads
	} else {
		var unknown []string
		for _, name := range strings.Split(*wl, ",") {
			if w, ok := workloadByName(strings.TrimSpace(name)); ok {
				o.workloads = append(o.workloads, w)
			} else {
				unknown = append(unknown, strconv.Quote(name))
			}
		}
		if len(unknown) > 0 {
			var known []string
			for _, w := range workloads {
				known = append(known, w.name)
			}
			return o, fmt.Errorf("unknown workload %s (known: %s, all)", strings.Join(unknown, ", "), strings.Join(known, ", "))
		}
	}
	if err := json.Unmarshal(expectedJSON, &o.want); err != nil {
		return o, fmt.Errorf("testdata/expected.json: %w", err)
	}
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintf(stderr, "quartzperf: %v\n", err)
		}
		return 2
	}
	if os.Getenv(childEnv) != "" {
		return runChild(o, stdout, stderr)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return runParent(ctx, o, stdout, stderr)
}

// runChild measures the child's one workload and prints its report.
func runChild(o options, stdout, stderr io.Writer) int {
	if len(o.workloads) != 1 {
		fmt.Fprintln(stderr, "quartzperf: a child runs exactly one workload")
		return 2
	}
	rep, err := measureWorkload(o.workloads[0], o)
	if err != nil {
		fmt.Fprintf(stderr, "quartzperf: %s: %v\n", o.workloads[0].name, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(rep); err != nil {
		fmt.Fprintf(stderr, "quartzperf: %v\n", err)
		return 1
	}
	return 0
}

// result is the last line printed for a workload.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// runParent runs each workload in its own child process and prints its
// metrics, then its result line.
func runParent(ctx context.Context, o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "quartzperf: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range o.workloads {
		rep, err := spawn(ctx, exe, w, o, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "quartzperf: %s: %v\n", w.name, err)
			rep.Attempted, rep.Failed = max(rep.Attempted, 1), max(rep.Attempted, 1)
		}
		res := result{Correct: err == nil && rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed}
		if o.trace {
			res.Metrics = rep.Metrics.pick(perLayer)
		} else {
			res.Metrics = rep.Metrics.pick(endToEnd)
		}
		printReport(stdout, o, rep, res)
		if !res.Correct {
			code = 1
		}
		if o.update && res.Correct {
			o.want[w.name] = rep.Sims
		}
	}
	if o.update {
		b, err := json.MarshalIndent(o.want, "", "  ")
		if err == nil {
			err = os.WriteFile(expectedFile, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "quartzperf: -update: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", expectedFile)
	}
	return code
}

// spawn runs workload w in a child process and returns its report, with
// the child's peak resident memory added on an untraced run.
func spawn(ctx context.Context, exe string, w workload, o options, stderr io.Writer) (childReport, error) {
	trace := "0"
	if o.trace {
		trace = "1"
	}
	args := []string{"-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", trace, "-trace-dir", o.traceDir}
	if o.update {
		args = append(args, "-update")
	}
	// The child measures for o.seconds after a warm-up pass; past this it is
	// hung.
	ctx, cancel := context.WithTimeout(ctx, 2*time.Duration(o.seconds*float64(time.Second))+120*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1", "GOMAXPROCS="+strconv.Itoa(w.procs))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	runErr := cmd.Run()
	var rep childReport
	if runErr != nil {
		return rep, fmt.Errorf("child process: %w", runErr)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return rep, fmt.Errorf("child report: %w", err)
	}
	if !o.trace {
		// Linux reports ru_maxrss in KiB.
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			rep.Metrics.set("peak_rss_mb", float64(ru.Maxrss)/1024)
		}
	}
	return rep, nil
}

// printReport prints a workload's metrics for people, then its result line.
func printReport(stdout io.Writer, o options, rep childReport, res result) {
	bw := bufio.NewWriter(stdout)
	defer bw.Flush()
	fmt.Fprintf(bw, "== %s (seed %d): %d units x %d measured passes after 1 warm-up ==\n",
		rep.Workload, o.seed, rep.Units, rep.Passes)
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	for _, d := range defs {
		if m, ok := res.Metrics[d.name]; ok {
			fmt.Fprintf(bw, "  %-26s %14.6g %s\n", d.name, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(bw, "  %-26s %14.6g ratio (%d of %d unit runs failed)\n", "fail_frac",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	fmt.Fprintf(bw, "  %-26s %14s\n", "digest", rep.Digest)
	for _, e := range rep.Errors {
		fmt.Fprintf(bw, "  error: %s\n", e)
	}
	line, _ := json.Marshal(res) // plain numbers and strings always marshal
	fmt.Fprintf(bw, "%s\n", line)
}
