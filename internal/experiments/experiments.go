// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) on the simulated substrate: each function runs the
// corresponding workload sweep and returns a text table with the same rows
// or series the paper reports. cmd/quartzbench renders them; the root-level
// benchmarks wrap them for `go test -bench`.
package experiments

import (
	"fmt"
	"strings"

	"github.com/quartz-emu/quartz/internal/obs/vtprof"
)

// Scale sizes the sweeps. Quick keeps every experiment in seconds for tests
// and CI; Full is the EXPERIMENTS.md configuration.
type Scale struct {
	// Trials is the number of repetitions per data point (the paper uses
	// 20 for microbenchmarks, 10 for applications).
	Trials int
	// Lines sizes pointer-chase working sets (cache lines).
	Lines int
	// MemLatIters is the chase length per trial.
	MemLatIters int
	// MTSections is the per-thread critical-section count of the
	// Multi-Threaded benchmark.
	MTSections int
	// MultiLatLines sizes each MultiLat array (scaled from the paper's
	// 10M/20M elements).
	MultiLatLines int
	// StreamLines sizes the STREAM arrays.
	StreamLines int
	// KVOps is the per-thread operation count of the key-value workload.
	KVOps int
	// KVPreload is the key count preloaded into the store.
	KVPreload int
	// PRVertices / PREdgesPerVertex size the PageRank graph.
	PRVertices, PREdgesPerVertex int
	// PRIters bounds PageRank iterations.
	PRIters int
	// TrafficClients is the client-count sweep of the traffic experiments.
	TrafficClients []int
	// TrafficPool is the serving pool size (simos threads) per scenario.
	TrafficPool int
	// TrafficOps / TrafficWarmup are the per-client measured and warmup op
	// counts.
	TrafficOps, TrafficWarmup int
	// TrafficPreload is the key count preloaded into the traffic store (also
	// the zipfian key-space size).
	TrafficPreload int
	// TrafficMixes selects the workload.Presets mixes swept.
	TrafficMixes []string
	// TrafficLatsNS is the emulated NVM latency sweep of the traffic
	// experiments.
	TrafficLatsNS []float64
	// TrafficMegaClients is the client-count axis of traffic-mega, the
	// scheduler-scale sweep. It extends far past TrafficClients (Full tops out
	// at 2^20 clients), so per-client op counts come from the Mega fields
	// below rather than TrafficOps/TrafficWarmup.
	TrafficMegaClients []int
	// TrafficMegaOps / TrafficMegaWarmup are traffic-mega's per-client
	// measured and warmup op counts (small: total ops scale with the client
	// count).
	TrafficMegaOps, TrafficMegaWarmup int
	// AsymProfiles selects the machine.NVMProfile names swept by the
	// asymmetric-model experiments (fig11-asym / fig12-asym); quartzbench
	// narrows it via -nvm-profile.
	AsymProfiles []string
	// AsymWriteLatNS, when positive, overrides every swept profile's NVM
	// write latency (quartzbench -nvm-write).
	AsymWriteLatNS float64
	// AsymLines sizes the fig12-asym streaming-store buffer (cache lines;
	// the buffer is cold, so each line is store-missed exactly once).
	AsymLines int
	// AsymWriters is the writer-thread-count axis of the fig11-asym
	// write-bandwidth sweep.
	AsymWriters []int
	// AsymBWLines is the per-writer store+flush line count of fig11-asym.
	AsymBWLines int
	// Sparse trims sweep grids (fewer latency points / patterns) for
	// quick runs; Full uses the paper's complete grids.
	Sparse bool
	// Profiles, when non-nil, attaches a virtual-time profiler per job
	// (keyed "setID/jobName"): the instrumented experiments pass it into
	// their environments so every simulated nanosecond is attributed by
	// (thread, phase stack, category). quartzbench exposes it as -vtprof.
	// Nil (the default) keeps every simulation byte-identical to an
	// unprofiled run. The paired units of one job share its profiler;
	// the fold is commutative, so profiles are identical for any
	// -parallel worker count.
	Profiles *vtprof.Suite
}

// Quick is the test/CI scale.
var Quick = Scale{
	Sparse:           true,
	Trials:           2,
	Lines:            1 << 19,
	MemLatIters:      25_000,
	MTSections:       200,
	MultiLatLines:    30_000,
	StreamLines:      1 << 16,
	KVOps:            2_500,
	KVPreload:        8_000,
	PRVertices:       20_000,
	PREdgesPerVertex: 6,
	PRIters:          6,
	TrafficClients:   []int{16, 64, 256},
	TrafficPool:      4,
	TrafficOps:       30,
	TrafficWarmup:    8,
	TrafficPreload:   32_000,
	TrafficMixes:     []string{"read-mostly", "write-heavy", "scan-blend"},
	TrafficLatsNS:    []float64{200, 1000},

	TrafficMegaClients: []int{4_096, 16_384},
	TrafficMegaOps:     3,
	TrafficMegaWarmup:  1,

	AsymProfiles: []string{"optane-dcpmm", "pcm"},
	AsymLines:    1 << 15,
	// Capped at 8 writers: with the main thread that is 9 of Ivy Bridge's 10
	// cores, so the sweep measures the throttle curve, not core timesharing.
	AsymWriters: []int{1, 2, 4, 8},
	AsymBWLines: 2_048,
}

// Full is the EXPERIMENTS.md scale.
var Full = Scale{
	Trials:           5,
	Lines:            1 << 20,
	MemLatIters:      120_000,
	MTSections:       1_000,
	MultiLatLines:    120_000,
	StreamLines:      1 << 17,
	KVOps:            4_000,
	KVPreload:        8_000,
	PRVertices:       50_000,
	PREdgesPerVertex: 8,
	PRIters:          10,
	TrafficClients:   []int{256, 1_024, 4_096, 16_384, 32_768},
	TrafficPool:      16,
	TrafficOps:       50,
	TrafficWarmup:    10,
	TrafficPreload:   100_000,
	TrafficMixes:     []string{"read-mostly", "write-heavy", "scan-blend"},
	TrafficLatsNS:    []float64{200, 600, 2_000},

	TrafficMegaClients: []int{65_536, 262_144, 1_048_576},
	TrafficMegaOps:     4,
	TrafficMegaWarmup:  1,

	AsymProfiles: []string{"optane-dcpmm", "pcm"},
	AsymLines:    1 << 17,
	AsymWriters:  []int{1, 2, 3, 4, 6, 8},
	AsymBWLines:  8_192,
}

// Metrics is the flat numeric result of one job, keyed by metric name
// (latencies in nanoseconds, bandwidths in bytes/s, errors as fractions).
type Metrics map[string]float64

// Job is one independent, deterministic unit of an experiment: a single
// sweep point (one latency target, one chain count, one trial group, ...).
// Jobs of the same experiment share no state, seed their simulations
// explicitly, and may therefore run in any order or concurrently.
type Job struct {
	// Name identifies the sweep point within the experiment, e.g.
	// "Ivy Bridge/target=500".
	Name string
	// Params describes the sweep point for structured result sinks.
	Params map[string]string
	// Run computes the point.
	Run func() (Metrics, error)
}

// JobSet is one experiment decomposed into independent jobs plus the
// assembler that merges their results into the final table. Assemble is pure
// aggregation and formatting over the per-job metrics (indexed exactly as
// Jobs), so the table is byte-identical however the jobs were scheduled. A
// set may have zero jobs when the artifact is static (table1).
type JobSet struct {
	ID       string
	Jobs     []Job
	Assemble func(points []Metrics) (Table, error)
}

// Table is a rendered experiment result.
type Table struct {
	ID     string // e.g. "fig11"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render formats the table as aligned text.
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// cell formats helpers.
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func pct(v float64) string { return fmt.Sprintf("%.2f%%", v*100) }
