package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestQuantileUniform checks the bucket-midpoint estimator against a known
// uniform distribution. Values 1..1000 land in power-of-two buckets; the
// estimator returns the midpoint of the bucket containing the rank, so the
// expected values are derivable by hand:
//
//	p50: rank 500 falls in bucket [256,512) (cumulative 511) → midpoint 384
//	p95: rank 950 falls in bucket [512,1024) → midpoint 768
//	p99: rank 990 falls in the same bucket → midpoint 768
func TestQuantileUniform(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("t.uniform")
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0.50, 384},
		{0.95, 768},
		{0.99, 768},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestQuantileConstant: a degenerate distribution must clamp every quantile
// to the observed value, not report a bucket midpoint that was never seen.
func TestQuantileConstant(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("t.const")
	for i := 0; i < 57; i++ {
		h.Observe(100)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if got := h.Quantile(q); got != 100 {
			t.Errorf("Quantile(%v) = %v, want exactly 100 (min==max clamp)", q, got)
		}
	}
}

// TestQuantileSkewed: a heavy-tailed distribution — the p99 must land in the
// tail bucket while the p50 stays in the body.
func TestQuantileSkewed(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("t.skew")
	for i := 0; i < 990; i++ {
		h.Observe(10) // bucket [8,16), midpoint 12
	}
	for i := 0; i < 10; i++ {
		h.Observe(100000) // bucket [65536,131072), midpoint 98304
	}
	if got := h.Quantile(0.5); got != 12 {
		t.Errorf("p50 = %v, want 12", got)
	}
	// p99: rank 981 is still in the body bucket (cumulative 990).
	if got := h.Quantile(0.99); got != 12 {
		t.Errorf("p99 = %v, want 12 (body holds 99%%)", got)
	}
	// p99.5: rank 995 crosses into the tail; midpoint 98304 clamps to the
	// observed max 100000? No — midpoint 98304 < max, stays as-is.
	if got := h.Quantile(0.995); got != 98304 {
		t.Errorf("p99.5 = %v, want 98304", got)
	}
}

// TestQuantileEmpty: no observations → an explicit 0 at every quantile, not
// NaN and not a bucket midpoint. The snapshot path must agree, and report
// Min = 0 rather than the atomic's uninitialized placeholder.
func TestQuantileEmpty(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("t.empty")
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty histogram Quantile(%v) = %v, want 0", q, got)
		}
	}
	hs := h.Snapshot()
	if hs.P50 != 0 || hs.P95 != 0 || hs.P99 != 0 {
		t.Errorf("empty snapshot quantiles = %v/%v/%v, want 0/0/0", hs.P50, hs.P95, hs.P99)
	}
	if hs.Min != 0 || hs.Max != 0 || hs.Mean != 0 {
		t.Errorf("empty snapshot min/max/mean = %v/%v/%v, want 0/0/0", hs.Min, hs.Max, hs.Mean)
	}
}

// TestQuantileOneSample: a single observation clamps every quantile to that
// exact value (min == max), at both extremes of q.
func TestQuantileOneSample(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("t.one")
	h.Observe(37)
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 37 {
			t.Errorf("one-sample Quantile(%v) = %v, want 37", q, got)
		}
	}
}

// TestQuantileTwoBuckets: two observations in distinct buckets — the p50 must
// come from the low bucket (clamped up to its observed min) and the p99 from
// the high bucket (clamped down to the observed max), exercising the
// cumulative walk's bucket boundary with the smallest possible population.
func TestQuantileTwoBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("t.two")
	h.Observe(10)  // bucket (8,16], midpoint 12
	h.Observe(100) // bucket (64,128], midpoint 96
	if got := h.Quantile(0.5); got != 12 {
		t.Errorf("p50 = %v, want 12 (low bucket midpoint)", got)
	}
	if got := h.Quantile(0.99); got != 96 {
		t.Errorf("p99 = %v, want 96 (high bucket midpoint)", got)
	}
	// The direct path and the snapshot-derived path must agree.
	hs := h.Snapshot()
	if hs.P50 != h.Quantile(0.5) || hs.P99 != h.Quantile(0.99) {
		t.Errorf("snapshot quantiles diverge from Quantile: %v/%v vs %v/%v",
			hs.P50, hs.P99, h.Quantile(0.5), h.Quantile(0.99))
	}
}

// TestSnapshotIncludesQuantiles: the registry snapshot and the JSON export
// both carry p50/p95/p99 alongside the buckets.
func TestSnapshotIncludesQuantiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("t.snap")
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	hs, ok := reg.Snapshot()["t.snap"].(HistogramSnapshot)
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	if hs.P50 != 384 || hs.P95 != 768 || hs.P99 != 768 {
		t.Errorf("snapshot quantiles = %v/%v/%v, want 384/768/768", hs.P50, hs.P95, hs.P99)
	}

	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	var got struct {
		P50 float64 `json:"p50"`
		P95 float64 `json:"p95"`
		P99 float64 `json:"p99"`
	}
	if err := json.Unmarshal(decoded["t.snap"], &got); err != nil {
		t.Fatal(err)
	}
	if got.P50 != 384 || got.P95 != 768 || got.P99 != 768 {
		t.Errorf("JSON quantiles = %+v, want 384/768/768", got)
	}
}
