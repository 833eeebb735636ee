package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs every workload at tiny size, and lets the parent tests
// re-execute this binary as a workload child.
func TestMain(m *testing.M) {
	defaultSizes = tinySizes
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// results parses the result lines of a run's output.
func results(t *testing.T, out string) []result {
	t.Helper()
	var rs []result
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "{") {
			var r result
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatalf("result line %q: %v", line, err)
			}
			rs = append(rs, r)
		}
	}
	return rs
}

func TestEveryWorkloadPrintsEveryEndToEndMetric(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "all", "-seconds", "0.01"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	rs := results(t, stdout.String())
	if len(rs) != len(workloads) {
		t.Fatalf("%d result lines for %d workloads:\n%s", len(rs), len(workloads), stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if !strings.HasPrefix(lines[len(lines)-1], "{") {
		t.Errorf("last line is not a result: %q", lines[len(lines)-1])
	}
	for i, r := range rs {
		name := workloads[i].name
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", name, r.Correct, r.Attempted, r.Failed)
		}
		if len(r.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d: %v", name, len(r.Metrics), len(endToEnd), r.Metrics)
		}
		for _, d := range endToEnd {
			m, ok := r.Metrics[d.name]
			if !ok || m.Unit != d.unit || !(m.Value > 0) {
				t.Errorf("%s: metric %s = %+v (present %v), want a positive value in %s", name, d.name, m, ok, d.unit)
			}
		}
	}
}

// measure runs w in-process at tiny size.
func measure(t *testing.T, w workload, seed int64, trace bool, seconds float64, dir string) childReport {
	t.Helper()
	o := options{seed: seed, seconds: seconds, trace: trace, traceDir: dir, sizes: tinySizes}
	rep, err := measureWorkload(w, o)
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", w.name, seed, trace, err)
	}
	if rep.Failed != 0 {
		t.Fatalf("%s seed %d trace %v: %d of %d unit runs failed: %v", w.name, seed, trace, rep.Failed, rep.Attempted, rep.Errors)
	}
	return rep
}

func TestDigestsFollowTheSeedAndIgnoreTracing(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		a := measure(t, w, 1, false, 0.01, dir)
		b := measure(t, w, 1, true, 0.01, dir)
		c := measure(t, w, 2, false, 0.01, dir)
		if a.Digest != b.Digest {
			t.Errorf("%s: traced digest %s differs from untraced %s", w.name, b.Digest, a.Digest)
		}
		// paper-quick's experiment seeds are fixed by design.
		if w.name != "paper-quick" && a.Digest == c.Digest {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %s", w.name, a.Digest)
		}
		for _, d := range perLayer {
			if m, ok := b.Metrics[d.name]; !ok || m.Unit != d.unit || math.IsNaN(m.Value) {
				t.Errorf("%s: traced metric %s = %+v (present %v)", w.name, d.name, m, ok)
			}
		}
		for _, suffix := range []string{".cpu.pprof", ".spans.jsonl"} {
			if _, err := os.Stat(filepath.Join(dir, w.name+suffix)); err != nil {
				t.Errorf("%s: traced run wrote no %s: %v", w.name, suffix, err)
			}
		}
	}
}

func TestLayerBucketsSumToProfileTotal(t *testing.T) {
	dir := t.TempDir()
	w, _ := workloadByName("memlat-validate")
	rep := measure(t, w, 1, true, 0.6, dir)
	raw, err := os.ReadFile(filepath.Join(dir, w.name+".cpu.pprof"))
	if err != nil {
		t.Fatal(err)
	}
	samples, err := decodeCPUProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	a := attribute(samples)
	if a.total == 0 {
		t.Fatal("the profile holds no CPU time")
	}
	var sum int64
	for _, l := range layers {
		sum += a.ns[l]
	}
	if sum != a.total {
		t.Errorf("layer buckets sum to %d ns, profile total %d ns (buckets %v)", sum, a.total, a.ns)
	}
	if a.ns["cache"] == 0 {
		t.Errorf("a MemLat profile charges nothing to cache: %v", a.ns)
	}
	var reported float64
	for _, l := range layers {
		reported += rep.Metrics[l+".cpu_s"].Value
	}
	if total := rep.Metrics["profile.cpu_s"].Value; math.Abs(reported-total) > 1e-9*total {
		t.Errorf("reported buckets sum to %g s, profile.cpu_s %g s", reported, total)
	}
}

func TestAttributionRule(t *testing.T) {
	const q = modulePath + "internal/"
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.futex", "runtime.futexwakeup", "runtime.ready", q + "sim.(*Coro).switchTo", q + "simos.(*Thread).Load"}, "sim"},
		{[]string{q + "simos.(*Mutex).Lock", q + "sim.(*Kernel).Run"}, "simos"},
		{[]string{q + "cache.(*Prefetcher).Observe", q + "cpu.(*Core).Load"}, "cache.prefetch"},
		{[]string{"runtime.memmove", q + "cache.(*Cache).Insert"}, "cache"},
		{[]string{q + "apps/kvstore.(*Store).Get"}, "kvstore"},
		{[]string{q + "apps/pagerank.Run"}, "apps"},
		{[]string{q + "obs/vtprof.(*ThreadSeries).Charge"}, "obs"},
		{[]string{q + "kmod.(*Module).ProgramCounters"}, "other"},
		{[]string{"main.measureWorkload"}, "quartzperf"},
		{[]string{modulePath + "cmd/quartzperf.measureWorkload"}, "quartzperf"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime._GC"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m"}, "runtime.sched"},
		{[]string{"syscall.Syscall6", "os.(*File).Write"}, "runtime.other"},
		{nil, "runtime.other"},
	} {
		if got := layerOfStack(c.stack); got != c.want {
			t.Errorf("layerOfStack(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestBadFlagsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "kv-read,nope"},
		{"-bogus"},
		{"-trace", "2"},
		{"-seconds", "0"},
		{"-update", "-seed", "2"},
		{"-update", "-trace", "1"},
		{"kv-read"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", args, code, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%v printed %q", args, stdout.String())
		}
	}
}

func TestExpectedCoversEveryBenchUnit(t *testing.T) {
	var want map[string]map[string]simOut
	if err := json.Unmarshal(expectedJSON, &want); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, u := range w.units(benchSizes, 1) {
			if len(want[w.name][u.name]) == 0 {
				t.Errorf("testdata/expected.json has no outputs for %s unit %s", w.name, u.name)
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps the repository's BENCHMARK.json in step
// with the metrics and workloads this command reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if os.IsNotExist(err) {
		t.Skip("no BENCHMARK.json")
	}
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, want %d", len(spec.Workloads), len(workloads))
	}
	for i := range spec.Workloads {
		if i < len(workloads) && spec.Workloads[i].Name != workloads[i].name {
			t.Errorf("BENCHMARK.json workload %d is %s, want %s", i, spec.Workloads[i].Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json has %d %s metrics, want %d", len(got), kind, len(want))
		}
		for i := range got {
			if i < len(want) && (got[i].Name != want[i].name || got[i].Unit != want[i].unit) {
				t.Errorf("BENCHMARK.json %s metric %d is %s [%s], want %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
