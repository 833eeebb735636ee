package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("a")
	c.Add(2)
	c.Add(3)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if reg.Counter("a") != c {
		t.Error("Counter(name) did not return the existing counter")
	}
	g := reg.Gauge("g")
	g.Set(1.5)
	if g.Value() != 1.5 {
		t.Errorf("gauge = %g, want 1.5", g.Value())
	}
}

func TestHistogramBucketsAndStats(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 4, 1000, -5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 7 {
		t.Errorf("count = %d, want 7", s.Count)
	}
	if s.Sum != 1010 {
		t.Errorf("sum = %d, want 1010", s.Sum)
	}
	if s.Min != 0 || s.Max != 1000 {
		t.Errorf("min/max = %d/%d, want 0/1000", s.Min, s.Max)
	}
	// 0, 1 and the clamped -5 land in "<=1"; 2 in "<=2"; 3, 4 in "<=4";
	// 1000 in "<=1024".
	want := map[string]int64{"<=1": 3, "<=2": 1, "<=4": 2, "<=1024": 1}
	for k, n := range want {
		if s.Buckets[k] != n {
			t.Errorf("bucket %q = %d, want %d (all: %v)", k, s.Buckets[k], n, s.Buckets)
		}
	}
}

func TestConcurrentRegistryAccess(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				reg.Counter("shared").Add(1)
				reg.Histogram("h").Observe(int64(i))
				reg.Gauge("g").Set(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("shared").Value(); got != 8000 {
		t.Errorf("shared counter = %d, want 8000", got)
	}
	if got := reg.Histogram("h").Snapshot().Count; got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}

func TestWriteJSONSortedAndParseable(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("z.last").Add(1)
	reg.Counter("a.first").Add(2)
	reg.Gauge("m.gauge").Set(0.5)
	reg.Histogram("h.hist").Observe(7)

	var sb strings.Builder
	if err := reg.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	var parsed map[string]any
	if err := json.Unmarshal([]byte(out), &parsed); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out)
	}
	if parsed["a.first"] != float64(2) {
		t.Errorf("a.first = %v, want 2", parsed["a.first"])
	}
	if strings.Index(out, `"a.first"`) > strings.Index(out, `"z.last"`) {
		t.Error("keys are not sorted")
	}
	hist, ok := parsed["h.hist"].(map[string]any)
	if !ok || hist["count"] != float64(1) {
		t.Errorf("histogram snapshot malformed: %v", parsed["h.hist"])
	}
}

// TestLocalHistogramFlushEquivalence: a LocalHistogram flushed in batches
// (into two destinations at once) must leave the shared histograms exactly
// as per-op Observe calls would have — same snapshot, byte for byte.
func TestLocalHistogramFlushEquivalence(t *testing.T) {
	var direct Histogram
	var dst, dst2 Histogram
	var local LocalHistogram

	vals := []int64{0, 1, 2, 3, 1000, -5, 1 << 20, 7, 7, 7, 1 << 40, 42}
	for i, v := range vals {
		direct.Observe(v)
		local.Observe(v)
		if i%4 == 3 {
			local.FlushInto(&dst, &dst2)
		}
	}
	local.FlushInto(&dst, &dst2)
	// Repeated flushes with nothing new must be no-ops.
	local.FlushInto(&dst, &dst2)

	want := fmt.Sprint(direct.Snapshot())
	if got := fmt.Sprint(dst.Snapshot()); got != want {
		t.Errorf("flushed primary differs from direct:\ngot  %s\nwant %s", got, want)
	}
	if got := fmt.Sprint(dst2.Snapshot()); got != want {
		t.Errorf("flushed secondary differs from direct:\ngot  %s\nwant %s", got, want)
	}
	if local.count != int64(len(vals)) {
		t.Errorf("local count = %d, want %d", local.count, len(vals))
	}
}

// TestLocalHistogramFlushIntoWarmDestination: flushing into a histogram that
// already has direct observations must merge, not replace — min/max and
// counts combine.
func TestLocalHistogramFlushIntoWarmDestination(t *testing.T) {
	var dst Histogram
	dst.Observe(100)
	dst.Observe(200)

	var local LocalHistogram
	local.Observe(5)
	local.Observe(1 << 30)
	local.FlushInto(&dst, nil)

	s := dst.Snapshot()
	if s.Count != 4 || s.Min != 5 || s.Max != 1<<30 {
		t.Errorf("merged snapshot = count %d min %d max %d, want 4/5/%d", s.Count, s.Min, s.Max, int64(1)<<30)
	}
	if s.Sum != 100+200+5+1<<30 {
		t.Errorf("merged sum = %d", s.Sum)
	}
}
