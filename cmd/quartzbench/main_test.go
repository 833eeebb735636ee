package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/quartz-emu/quartz/internal/experiments"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestListPrintsDescriptions(t *testing.T) {
	code, stdout, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, id := range experiments.All() {
		desc, err := experiments.Describe(id)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(stdout, id) {
			t.Errorf("-list missing id %q", id)
		}
		if !strings.Contains(stdout, desc) {
			t.Errorf("-list missing description for %q", id)
		}
	}
}

// TestUnknownIDsRejectedUpfront: a typo anywhere in -exp must fail before
// any experiment runs — quickly, and naming every bad id.
func TestUnknownIDsRejectedUpfront(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-exp", "table2,fig99,bogus")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "fig99") || !strings.Contains(stderr, "bogus") {
		t.Errorf("stderr does not name the unknown ids: %q", stderr)
	}
	if strings.Contains(stdout, "== table2") {
		t.Error("experiments ran despite an invalid id")
	}
}

func TestUnknownScaleRejected(t *testing.T) {
	if code, _, _ := runCLI(t, "-scale", "huge"); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
}

// TestTrafficFlagValidation: bad -traffic-clients / -traffic-mixes values
// must fail upfront (exit 2) before any experiment runs, and the mix error
// must name the known presets.
func TestTrafficFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-exp", "traffic-sweep", "-traffic-clients", "8,zero"},
		{"-exp", "traffic-sweep", "-traffic-clients", "0"},
		{"-exp", "traffic-sweep", "-traffic-clients", "-4"},
		{"-exp", "traffic-sweep", "-traffic-mixes", "read-heavy"},
		{"-exp", "traffic-sweep", "-traffic-pool", "-2"},
		{"-exp", "traffic-sweep", "-traffic-lats", "600,zero"},
		{"-exp", "traffic-sweep", "-traffic-lats", "0"},
		{"-exp", "traffic-sweep", "-traffic-lats", "NaN"},
		{"-exp", "traffic-sweep", "-traffic-lats", "600,Inf"},
	}
	for _, args := range cases {
		if code, _, _ := runCLI(t, args...); code != 2 {
			t.Errorf("%v: exit = %d, want 2", args, code)
		}
	}
	_, _, stderr := runCLI(t, "-exp", "traffic-sweep", "-traffic-mixes", "nope")
	if !strings.Contains(stderr, "read-mostly") {
		t.Errorf("mix error does not name known presets: %q", stderr)
	}
}

// TestTrafficOverrides applies the traffic flags to the scale.
func TestTrafficOverrides(t *testing.T) {
	s := experiments.Quick
	if err := applyTrafficOverrides(&s, "8, 24", "scan-blend", 9, "200, 600"); err != nil {
		t.Fatal(err)
	}
	if len(s.TrafficClients) != 2 || s.TrafficClients[0] != 8 || s.TrafficClients[1] != 24 {
		t.Errorf("TrafficClients = %v", s.TrafficClients)
	}
	if len(s.TrafficMixes) != 1 || s.TrafficMixes[0] != "scan-blend" {
		t.Errorf("TrafficMixes = %v", s.TrafficMixes)
	}
	if s.TrafficPool != 9 {
		t.Errorf("TrafficPool = %d, want 9", s.TrafficPool)
	}
	if len(s.TrafficLatsNS) != 2 || s.TrafficLatsNS[0] != 200 || s.TrafficLatsNS[1] != 600 {
		t.Errorf("TrafficLatsNS = %v", s.TrafficLatsNS)
	}
	// Empty flags leave the scale untouched.
	s2 := experiments.Quick
	if err := applyTrafficOverrides(&s2, "", "", 0, ""); err != nil {
		t.Fatal(err)
	}
	if len(s2.TrafficClients) != len(experiments.Quick.TrafficClients) {
		t.Errorf("empty override changed TrafficClients: %v", s2.TrafficClients)
	}
	if s2.TrafficPool != experiments.Quick.TrafficPool {
		t.Errorf("pool 0 changed TrafficPool: %d", s2.TrafficPool)
	}
	if len(s2.TrafficLatsNS) != len(experiments.Quick.TrafficLatsNS) {
		t.Errorf("empty override changed TrafficLatsNS: %v", s2.TrafficLatsNS)
	}
	if err := applyTrafficOverrides(&s2, "", "", -1, ""); err == nil {
		t.Error("negative -traffic-pool accepted")
	}
	if err := applyTrafficOverrides(&s2, "", "", 0, "600,zero"); err == nil {
		t.Error("non-numeric -traffic-lats accepted")
	}
	if err := applyTrafficOverrides(&s2, "", "", 0, "-200"); err == nil {
		t.Error("negative -traffic-lats accepted")
	}
}

// TestVTProfWritesProfiles: -vtprof on a real (tiny) traffic job must write a
// per-job profile and the merged suite profile, both non-empty gzipped pprof
// files, plus the folded-stacks sidecars.
func TestVTProfWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	code, _, stderr := runCLI(t, "-exp", "traffic-sweep", "-scale", "quick",
		"-traffic-clients", "8", "-traffic-mixes", "read-mostly", "-traffic-lats", "600",
		"-vtprof", dir)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	suite := filepath.Join(dir, "suite.pb.gz")
	b, err := os.ReadFile(suite)
	if err != nil {
		t.Fatalf("merged suite profile missing: %v", err)
	}
	if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Errorf("suite.pb.gz is not gzip (starts %x)", b[:min(4, len(b))])
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var pb, folded int
	for _, e := range entries {
		switch {
		case strings.HasSuffix(e.Name(), ".pb.gz"):
			pb++
		case strings.HasSuffix(e.Name(), ".folded"):
			folded++
		}
	}
	if pb < 2 { // at least one per-job profile plus the suite merge
		t.Errorf("want >= 2 .pb.gz files (job + suite), got %d: %v", pb, entries)
	}
	if folded != pb {
		t.Errorf("every .pb.gz needs a .folded sidecar: %d vs %d", pb, folded)
	}
}

// TestTrafficOpsReachRecorder: the traffic experiment reports to the run's
// recorder, so the served-op counter of the metrics snapshot equals the sum
// of the reads, updates and scans the job records report.
func TestTrafficOpsReachRecorder(t *testing.T) {
	dir := t.TempDir()
	jsonPath, metricsPath := filepath.Join(dir, "r.jsonl"), filepath.Join(dir, "m.json")
	code, _, stderr := runCLI(t, "-exp", "traffic-sweep", "-scale", "quick",
		"-traffic-clients", "8,16", "-traffic-mixes", "scan-blend", "-traffic-lats", "600",
		"-json", jsonPath, "-metrics-out", metricsPath)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var served float64
	jobs := 0
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var rec struct {
			Status  string             `json:"status"`
			Metrics map[string]float64 `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if rec.Status != "ok" {
			t.Fatalf("job not ok: %s", line)
		}
		served += rec.Metrics["reads"] + rec.Metrics["updates"] + rec.Metrics["scans"]
		jobs++
	}
	if jobs != 2 || served == 0 {
		t.Fatalf("%d jobs served %v ops, want 2 jobs serving some", jobs, served)
	}
	metricsRaw, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var metrics map[string]any
	if err := json.Unmarshal(metricsRaw, &metrics); err != nil {
		t.Fatalf("metrics snapshot is not valid JSON: %v", err)
	}
	if got, _ := metrics["quartz.ops.count"].(float64); got != served {
		t.Errorf("quartz.ops.count = %v, want %v (the jobs' reads+updates+scans)", got, served)
	}
}

// TestRunWritesTableAndJSONL exercises the full CLI path on the job-less
// table1 artifact (no simulation, so the test stays fast).
func TestRunWritesTableAndJSONL(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "results.jsonl")
	code, stdout, stderr := runCLI(t, "-exp", "table1", "-parallel", "4", "-json", jsonPath)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "== table1:") {
		t.Errorf("missing table1 render:\n%s", stdout)
	}
	if _, err := os.Stat(jsonPath); err != nil {
		t.Errorf("JSONL file not created: %v", err)
	}
}

// TestTraceAndMetricsExports runs a small real experiment with -trace and
// -metrics-out and cross-checks the two artifacts: the trace must be a
// loadable Chrome trace-event file whose epoch slices account for every
// retained ledger record, and the metrics snapshot must agree with it.
func TestTraceAndMetricsExports(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.json")
	code, stdout, stderr := runCLI(t, "-exp", "overhead", "-trace", tracePath, "-metrics-out", metricsPath)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "== overhead") {
		t.Errorf("experiment table missing:\n%s", stdout)
	}

	traceRaw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Cat string `json:"cat"`
		} `json:"traceEvents"`
		OtherData struct {
			Retained int64 `json:"epochs_retained"`
			Dropped  int64 `json:"epochs_dropped"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(traceRaw, &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var epochSlices int64
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "X" && ev.Cat == "epoch" {
			epochSlices++
		}
	}
	if epochSlices == 0 {
		t.Fatal("trace contains no epoch slices")
	}
	if epochSlices != tr.OtherData.Retained {
		t.Errorf("trace has %d epoch slices but reports %d retained", epochSlices, tr.OtherData.Retained)
	}

	metricsRaw, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var metrics map[string]any
	if err := json.Unmarshal(metricsRaw, &metrics); err != nil {
		t.Fatalf("metrics snapshot is not valid JSON: %v", err)
	}
	closed, ok := metrics["quartz.epochs.closed"].(float64)
	if !ok {
		t.Fatalf("metrics missing quartz.epochs.closed: %v", metrics)
	}
	if int64(closed) != tr.OtherData.Retained+tr.OtherData.Dropped {
		t.Errorf("epochs.closed = %d, trace retained+dropped = %d",
			int64(closed), tr.OtherData.Retained+tr.OtherData.Dropped)
	}
	if jobsOK, ok := metrics["runner.jobs.ok"].(float64); !ok || jobsOK == 0 {
		t.Errorf("runner.jobs.ok missing or zero: %v", metrics["runner.jobs.ok"])
	}
}

// TestNoObservabilityFlagsWritesNothing: without -trace/-metrics the run
// has no recorder and no observability output appears.
func TestNoObservabilityFlagsWritesNothing(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-exp", "table1")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	if strings.Contains(stdout, "traceEvents") || strings.Contains(stdout, "quartz.epochs.closed") {
		t.Errorf("observability output leaked without flags:\n%s", stdout)
	}
}

// TestAsymFlagValidation: bad -nvm-write / -nvm-profile values must fail
// upfront (exit 2) before any experiment runs, and the profile error must
// name the known profiles.
func TestAsymFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-exp", "fig12-asym", "-nvm-write", "-5"},
		{"-exp", "fig12-asym", "-nvm-write", "NaN"},
		{"-exp", "fig12-asym", "-nvm-profile", "xpoint"},
		{"-exp", "fig11-asym", "-nvm-profile", "optane-dcpmm,bogus"},
	}
	for _, args := range cases {
		if code, _, _ := runCLI(t, args...); code != 2 {
			t.Errorf("%v: exit = %d, want 2", args, code)
		}
	}
	_, _, stderr := runCLI(t, "-exp", "fig12-asym", "-nvm-profile", "nope")
	if !strings.Contains(stderr, "optane-dcpmm") || !strings.Contains(stderr, "pcm") {
		t.Errorf("profile error does not name known profiles: %q", stderr)
	}
}

// TestAsymOverrides applies the asymmetric-model flags to the scale.
func TestAsymOverrides(t *testing.T) {
	s := experiments.Quick
	if err := applyAsymOverrides(&s, 680, "pcm, optane-dcpmm"); err != nil {
		t.Fatal(err)
	}
	if s.AsymWriteLatNS != 680 {
		t.Errorf("AsymWriteLatNS = %g, want 680", s.AsymWriteLatNS)
	}
	if len(s.AsymProfiles) != 2 || s.AsymProfiles[0] != "pcm" || s.AsymProfiles[1] != "optane-dcpmm" {
		t.Errorf("AsymProfiles = %v", s.AsymProfiles)
	}
	// Empty flags leave the scale untouched.
	s2 := experiments.Quick
	if err := applyAsymOverrides(&s2, 0, ""); err != nil {
		t.Fatal(err)
	}
	if s2.AsymWriteLatNS != 0 || len(s2.AsymProfiles) != len(experiments.Quick.AsymProfiles) {
		t.Errorf("empty override changed the scale: lat=%g profiles=%v", s2.AsymWriteLatNS, s2.AsymProfiles)
	}
	if err := applyAsymOverrides(&s2, -1, ""); err == nil {
		t.Error("negative -nvm-write accepted")
	}
	if err := applyAsymOverrides(&s2, 0, "optane-dcpmm,"); err == nil {
		t.Error("empty profile name accepted")
	}
}
