package runner

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"github.com/quartz-emu/quartz/internal/experiments"
)

// suiteScale keeps the determinism suite fast; determinism must hold at any
// scale since jobs seed their simulations explicitly.
var suiteScale = experiments.Scale{
	Sparse:           true,
	Trials:           1,
	Lines:            1 << 16,
	MemLatIters:      2_000,
	MTSections:       30,
	MultiLatLines:    4_000,
	StreamLines:      1 << 13,
	KVOps:            150,
	KVPreload:        300,
	PRVertices:       400,
	PREdgesPerVertex: 4,
	PRIters:          2,
	TrafficClients:   []int{4, 8, 16},
	TrafficPool:      2,
	TrafficOps:       5,
	TrafficWarmup:    2,
	TrafficPreload:   150,
	TrafficMixes:     []string{"read-mostly", "write-heavy"},
	TrafficLatsNS:    []float64{300},

	TrafficMegaClients: []int{24, 96},
	TrafficMegaOps:     2,
	TrafficMegaWarmup:  1,

	AsymProfiles: []string{"optane-dcpmm", "pcm"},
	AsymLines:    1 << 12,
	AsymWriters:  []int{1, 2, 4},
	AsymBWLines:  256,
}

// renderAll concatenates the rendered tables of a suite run.
func renderAll(t *testing.T, runs []ExperimentRun) string {
	t.Helper()
	var b strings.Builder
	for _, er := range runs {
		if er.Err != nil {
			t.Fatalf("%s: %v", er.ID, er.Err)
		}
		b.WriteString(er.Table.Render())
	}
	return b.String()
}

// TestSuiteDeterminism: the assembled tables must be byte-identical
// regardless of worker count. table2 exercises the per-cell decomposition,
// fig16 the cross-job baseline normalization in the assembler, fig11 the
// paired Conf_1/Conf_2 trial slots, model-ablation the variant units, and
// the two asymmetric-model sweeps the store-counter/write-stall path
// (fig12-asym interleaves read/baseline/asym unit triples; fig11-asym spawns
// multi-writer simulations whose registration order reprograms the write
// throttle).
func TestSuiteDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	ids := []string{"table2", "fig16", "fig11", "model-ablation", "fig11-asym", "fig12-asym"}
	serial, err := Suite(context.Background(), ids, suiteScale, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Suite(context.Background(), ids, suiteScale, Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	want, got := renderAll(t, serial), renderAll(t, parallel)
	if want != got {
		t.Errorf("parallel output diverges from serial output:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
	}
	if len(want) == 0 {
		t.Fatal("empty suite output")
	}
}

// TestTrafficSuiteDeterminism: the traffic sweep's client x mix x latency
// matrix — whose per-client generators are merged by position — must
// assemble byte-identical tables for 1 vs. N workers, the ISSUE 6 gate.
func TestTrafficSuiteDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	ids := []string{"traffic-sweep", "traffic-slo", "traffic-mega"}
	serial, err := Suite(context.Background(), ids, suiteScale, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Suite(context.Background(), ids, suiteScale, Config{Workers: 6})
	if err != nil {
		t.Fatal(err)
	}
	want, got := renderAll(t, serial), renderAll(t, parallel)
	if want != got {
		t.Errorf("parallel traffic tables diverge from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
	}
	if !strings.Contains(want, "knee") {
		t.Errorf("traffic sweep reports no knee:\n%s", want)
	}
}

// TestSuiteSerialMatchesDirectRun: the Workers=1 suite path must reproduce
// experiments.Run exactly.
func TestSuiteSerialMatchesDirectRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	const id = "model-ablation"
	direct, err := experiments.Run(id, suiteScale)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := Suite(context.Background(), []string{id}, suiteScale, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if runs[0].Err != nil {
		t.Fatal(runs[0].Err)
	}
	if direct.Render() != runs[0].Table.Render() {
		t.Errorf("suite output differs from direct run:\n--- direct ---\n%s\n--- suite ---\n%s",
			direct.Render(), runs[0].Table.Render())
	}
}

// panickingSet is an injected experiment whose second job crashes.
func panickingSet() experiments.JobSet {
	ok := func() (experiments.Metrics, error) { return experiments.Metrics{"v": 1}, nil }
	return experiments.JobSet{
		ID: "inject-panic",
		Jobs: []experiments.Job{
			{Name: "fine", Run: ok},
			{Name: "crash", Run: func() (experiments.Metrics, error) { panic("injected crash") }},
			{Name: "also-fine", Run: ok},
		},
		Assemble: func(points []experiments.Metrics) (experiments.Table, error) {
			return experiments.Table{ID: "inject-panic", Header: []string{"n"}, Rows: [][]string{{"1"}}}, nil
		},
	}
}

// healthySet is a trivial experiment that must survive a sibling's crash.
func healthySet() experiments.JobSet {
	return experiments.JobSet{
		ID: "healthy",
		Jobs: []experiments.Job{{
			Name: "only",
			Run:  func() (experiments.Metrics, error) { return experiments.Metrics{"v": 2}, nil },
		}},
		Assemble: func(points []experiments.Metrics) (experiments.Table, error) {
			return experiments.Table{
				ID: "healthy", Title: "healthy", Header: []string{"v"},
				Rows: [][]string{{"2"}},
			}, nil
		},
	}
}

// TestSuitePanicFailsOneExperimentOnly: an injected panicking job must yield
// a failed-job JSONL record and a failed experiment (non-zero exit in
// quartzbench), while the other experiment still completes and renders.
func TestSuitePanicFailsOneExperimentOnly(t *testing.T) {
	var jsonl bytes.Buffer
	runs, err := SuiteSets(context.Background(),
		[]experiments.JobSet{panickingSet(), healthySet()},
		Config{Workers: 2, Sink: NewSink(&jsonl)})
	if err != nil {
		t.Fatal(err)
	}
	if runs[0].Err == nil {
		t.Error("experiment with panicking job reported no error")
	} else if !strings.Contains(runs[0].Err.Error(), "injected crash") {
		t.Errorf("panic cause lost: %v", runs[0].Err)
	}
	if runs[1].Err != nil {
		t.Errorf("healthy experiment failed: %v", runs[1].Err)
	}
	if got := runs[1].Table.Render(); !strings.Contains(got, "healthy") {
		t.Errorf("healthy experiment did not render: %q", got)
	}
	out := jsonl.String()
	if !strings.Contains(out, `"status":"failed"`) || !strings.Contains(out, "injected crash") {
		t.Errorf("JSONL missing the failed-job record:\n%s", out)
	}
	if !strings.Contains(out, `"job":"healthy/only"`) {
		t.Errorf("JSONL missing the healthy job record:\n%s", out)
	}
}

// TestSuiteUnknownExperiment: resolution fails before anything runs.
func TestSuiteUnknownExperiment(t *testing.T) {
	if _, err := Suite(context.Background(), []string{"fig99"}, suiteScale, Config{}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestSuiteZeroJobExperiment: table1 has no jobs; the assembler still
// produces the artifact.
func TestSuiteZeroJobExperiment(t *testing.T) {
	runs, err := Suite(context.Background(), []string{"table1"}, suiteScale, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if runs[0].Err != nil {
		t.Fatal(runs[0].Err)
	}
	if len(runs[0].Table.Rows) == 0 {
		t.Error("table1 produced no rows")
	}
}
