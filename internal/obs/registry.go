package obs

import (
	"encoding/json"
	"io"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. All methods are safe for
// concurrent use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Value reports the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric holding one settable value (last write wins).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value reports the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// histBuckets is the number of power-of-two histogram buckets: bucket k
// counts observations v with 2^(k-1) < v <= 2^k (bucket 0 counts v <= 1).
const histBuckets = 64

// Histogram accumulates int64 observations into power-of-two buckets. It
// tracks count, sum, min and max exactly; the distribution is approximated
// by the bucket counts.
type Histogram struct {
	count atomic.Int64
	sum   atomic.Int64
	min   atomic.Int64 // valid when count > 0
	max   atomic.Int64
	once  sync.Once
	bkt   [histBuckets]atomic.Int64
}

// Observe records one value. Negative values are clamped to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.merge(1, v, v, v, nil)
	h.bkt[bucketOf(v)].Add(1)
}

// bucketOf maps v (>= 0) to its power-of-two bucket index.
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	return bits.Len64(uint64(v - 1))
}

// merge folds a batch of observations — a count, their sum, the batch min
// and max, and per-bucket counts (nil when the caller folds buckets itself)
// — into the histogram. Each field is merged atomically, so concurrent
// mergers and observers compose; min/max may be re-merged idempotently
// across repeated flushes of the same source.
func (h *Histogram) merge(count, sum, mn, mx int64, bkt *[histBuckets]int64) {
	if count <= 0 {
		return
	}
	h.once.Do(func() { h.min.Store(mn) })
	h.count.Add(count)
	h.sum.Add(sum)
	for {
		cur := h.min.Load()
		if mn >= cur || h.min.CompareAndSwap(cur, mn) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if mx <= cur || h.max.CompareAndSwap(cur, mx) {
			break
		}
	}
	if bkt != nil {
		for k := range bkt {
			if n := bkt[k]; n != 0 {
				h.bkt[k].Add(n)
			}
		}
	}
}

// LocalHistogram is a plain, non-atomic power-of-two histogram for batched
// recording on a hot path owned by one goroutine (or one cooperatively
// scheduled simulation thread): Observe is a handful of plain integer
// operations, and FlushInto periodically folds everything recorded since the
// previous flush into one or two shared Histograms. The final flush makes
// the shared totals exact; between flushes they lag by at most the unflushed
// batch.
type LocalHistogram struct {
	count, sum int64
	min, max   int64
	bkt        [histBuckets]int64
	// flushed state: the prefix already folded into the destinations.
	fCount, fSum int64
	fBkt         [histBuckets]int64
}

// Observe records one value. Negative values are clamped to zero.
func (l *LocalHistogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	if l.count == 0 || v < l.min {
		l.min = v
	}
	if v > l.max {
		l.max = v
	}
	l.count++
	l.sum += v
	l.bkt[bucketOf(v)]++
}

// FlushInto folds the observations recorded since the previous flush into
// dst and, when non-nil, dst2 — the same delta into both, so a result
// histogram and a live registry histogram stay in step from one flush
// stream. Nil destinations are skipped; a no-op when nothing new was
// recorded.
func (l *LocalHistogram) FlushInto(dst, dst2 *Histogram) {
	dc := l.count - l.fCount
	if dc == 0 {
		return
	}
	ds := l.sum - l.fSum
	if dst != nil {
		dst.merge(dc, ds, l.min, l.max, nil)
	}
	if dst2 != nil {
		dst2.merge(dc, ds, l.min, l.max, nil)
	}
	for k := range l.bkt {
		if d := l.bkt[k] - l.fBkt[k]; d != 0 {
			if dst != nil {
				dst.bkt[k].Add(d)
			}
			if dst2 != nil {
				dst2.bkt[k].Add(d)
			}
			l.fBkt[k] = l.bkt[k]
		}
	}
	l.fCount, l.fSum = l.count, l.sum
}

// HistogramSnapshot is an exported view of a Histogram.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	// P50/P95/P99 are quantile estimates derived from the power-of-two
	// bucket midpoints, clamped to the observed [Min, Max]. The bucket
	// resolution bounds the estimation error: the true quantile lies within
	// the estimate's bucket, i.e. within a factor of ~1.5.
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	// Buckets maps the bucket's inclusive upper bound (a power of two) to
	// its observation count; empty buckets are omitted.
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

// Snapshot exports the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Min:   h.min.Load(),
		Max:   h.max.Load(),
	}
	if s.Count > 0 {
		s.Mean = float64(s.Sum) / float64(s.Count)
	} else {
		s.Min = 0
	}
	counts, total := h.buckets()
	for k, n := range counts {
		if n > 0 {
			if s.Buckets == nil {
				s.Buckets = make(map[string]int64)
			}
			s.Buckets[bucketLabel(k)] = n
		}
	}
	if total > 0 {
		s.P50 = quantile(counts[:], total, 0.50, s.Min, s.Max)
		s.P95 = quantile(counts[:], total, 0.95, s.Min, s.Max)
		s.P99 = quantile(counts[:], total, 0.99, s.Min, s.Max)
	}
	return s
}

// Quantile estimates the q-th quantile (0 < q <= 1) of the observed
// distribution from the bucket midpoints, clamped to the observed min/max.
// An empty histogram explicitly reports 0 — never NaN or a phantom bucket
// midpoint. It reads the atomic buckets directly (no snapshot allocation),
// so concurrent observers may land between the count and bucket loads; the
// bucket total, not the count, drives the rank so the walk stays in range.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count.Load() == 0 {
		return 0
	}
	counts, total := h.buckets()
	if total == 0 {
		return 0
	}
	return quantile(counts[:], total, q, h.min.Load(), h.max.Load())
}

// buckets copies the atomic bucket counts and returns them with their
// total.
func (h *Histogram) buckets() (counts [histBuckets]int64, total int64) {
	for k := range h.bkt {
		n := h.bkt[k].Load()
		counts[k] = n
		total += n
	}
	return counts, total
}

// quantile walks the cumulative bucket counts to the bucket holding the
// q-th ranked observation and returns that bucket's midpoint, clamped to
// the observed [min, max].
func quantile(counts []int64, total int64, q float64, min, max int64) float64 {
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for k, c := range counts {
		cum += c
		if cum >= rank && c > 0 {
			mid := bucketMidpoint(k)
			if mid < float64(min) {
				mid = float64(min)
			}
			if mid > float64(max) {
				mid = float64(max)
			}
			return mid
		}
	}
	return float64(max)
}

// bucketMidpoint is the midpoint of bucket k's value range: bucket 0 covers
// v <= 1, bucket k > 0 covers (2^(k-1), 2^k].
func bucketMidpoint(k int) float64 {
	if k == 0 {
		return 0.5
	}
	return 1.5 * math.Ldexp(1, k-1)
}

// bucketLabel renders bucket k's upper bound ("<=1", "<=2", "<=4", ...).
func bucketLabel(k int) string {
	if k >= 63 { // 2^63 overflows int64; label the top bucket openly
		return "<=inf"
	}
	return "<=" + strconv.FormatInt(int64(1)<<uint(k), 10)
}

// Registry is a named collection of counters, gauges and histograms —
// expvar-style: metrics are created on first use and exported as one JSON
// snapshot. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on first
// use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot exports every metric's current value keyed by name: counters as
// int64, gauges as float64, histograms as HistogramSnapshot.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.hists {
		out[name] = h.Snapshot()
	}
	return out
}

// WriteJSON writes the snapshot as indented JSON with sorted keys.
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	// Emit in sorted order for stable, diffable output.
	if _, err := io.WriteString(w, "{\n"); err != nil {
		return err
	}
	for i, name := range names {
		v, err := json.Marshal(snap[name])
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(names)-1 {
			sep = "\n"
		}
		k, _ := json.Marshal(name)
		if _, err := io.WriteString(w, "  "+string(k)+": "+string(v)+sep); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "}\n")
	return err
}
