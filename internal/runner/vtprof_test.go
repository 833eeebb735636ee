package runner

import (
	"bytes"
	"context"
	"testing"

	"github.com/quartz-emu/quartz/internal/experiments"
	"github.com/quartz-emu/quartz/internal/obs/vtprof"
)

// vtScale is a tiny scale covering the two experiment shapes that matter for
// profiler determinism: fig11's paired Conf_1/Conf_2 units (which share one
// job profiler) and traffic-sweep's phase-tagged serving scenarios.
func vtScale() experiments.Scale {
	return experiments.Scale{
		Sparse:      true,
		Trials:      1,
		Lines:       1 << 16,
		MemLatIters: 2_000,

		TrafficClients: []int{4, 8},
		TrafficPool:    2,
		TrafficOps:     6,
		TrafficWarmup:  2,
		TrafficPreload: 200,
		TrafficMixes:   []string{"read-mostly"},
		TrafficLatsNS:  []float64{300},
	}
}

// runVTSuite runs fig11 + traffic-sweep on the given worker count and
// returns the rendered tables plus the merged suite profile bytes (nil when
// no profiler was attached).
func runVTSuite(t *testing.T, workers int, profile bool) (string, []byte) {
	t.Helper()
	s := vtScale()
	var suite *vtprof.Suite
	if profile {
		suite = vtprof.NewSuite()
		s.Profiles = suite
	}
	runs, err := Suite(context.Background(), []string{"fig11", "traffic-sweep"}, s, Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	var tables bytes.Buffer
	for _, r := range runs {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		tables.WriteString(r.Table.Render())
	}
	if suite == nil {
		return tables.String(), nil
	}
	b, err := suite.PprofBytes()
	if err != nil {
		t.Fatal(err)
	}
	return tables.String(), b
}

// TestVTProfDeterministicAcrossLayouts: with the profiler attached, both the
// experiment tables and the merged suite profile must be byte-identical for
// serial and 4-worker runs — job scheduling and the commutative fold may not
// leak into either artifact.
func TestVTProfDeterministicAcrossLayouts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two experiments three times")
	}
	serialTables, serialProf := runVTSuite(t, 1, true)
	parTables, parProf := runVTSuite(t, 4, true)
	if serialTables != parTables {
		t.Errorf("tables differ across layouts:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serialTables, parTables)
	}
	if !bytes.Equal(serialProf, parProf) {
		t.Errorf("suite profile bytes differ across layouts (%d vs %d bytes)",
			len(serialProf), len(parProf))
	}
	if len(serialProf) == 0 {
		t.Error("profiled suite produced no profile bytes")
	}

	// Detaching the profiler must not move a single virtual timestamp: the
	// tables are the same bytes with and without it.
	bareTables, _ := runVTSuite(t, 4, false)
	if bareTables != serialTables {
		t.Errorf("tables differ with profiler detached:\n--- profiled ---\n%s\n--- bare ---\n%s",
			serialTables, bareTables)
	}
}

// TestVTSuiteJobKeys: the suite keys job profilers as "setID/jobName",
// matching the runner's job IDs, and every instrumented job of the suite
// accumulated nonzero virtual time.
func TestVTSuiteJobKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two experiments")
	}
	s := vtScale()
	suite := vtprof.NewSuite()
	s.Profiles = suite
	runs, err := Suite(context.Background(), []string{"fig11", "traffic-sweep"}, s, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, r := range runs {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		for _, jr := range r.Jobs {
			want[jr.JobID] = true
		}
	}
	jobs := suite.Jobs()
	if len(jobs) != len(want) {
		t.Errorf("suite has %d job profiles, runner ran %d jobs", len(jobs), len(want))
	}
	for _, name := range jobs {
		if !want[name] {
			t.Errorf("suite job key %q does not match any runner job ID", name)
		}
		if total := suite.JobProfile(name).TotalNS(); total <= 0 {
			t.Errorf("job %q profiled %d virtual ns, want > 0", name, total)
		}
	}
}
