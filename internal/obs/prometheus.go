package obs

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (version 0.0.4) of the metrics registry, the
// format every Prometheus-compatible scraper and agent ingests. The JSON
// snapshot (WriteJSON / WriteMetricsJSON) stays the primary, lossless export;
// this view maps the same metrics onto the exposition's three families:
//
//   - counters and gauges emit one sample each;
//   - histograms emit the cumulative _bucket series over the power-of-two
//     bucket bounds (plus the mandatory le="+Inf" bucket), then _sum and
//     _count — exactly the shape promQL's histogram_quantile expects.
//
// Metric names are sanitized for the exposition grammar
// ([a-zA-Z_:][a-zA-Z0-9_:]*): the registry's dotted names become
// underscore-separated ("quartz.epochs.closed" → "quartz_epochs_closed"),
// and any other illegal byte also maps to '_'. Output is sorted by
// sanitized name, so the exposition is byte-stable for a fixed registry
// state and golden-testable.

// promName sanitizes a registry metric name for the exposition grammar.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat renders a float64 sample value (Prometheus accepts Go's
// shortest-representation float syntax, including exponent forms).
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes every registered metric in the Prometheus text
// exposition format, sorted by sanitized name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	type metric struct {
		name string
		c    *Counter
		g    *Gauge
		h    *Histogram
	}
	ms := make([]metric, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		ms = append(ms, metric{name: promName(name), c: c})
	}
	for name, g := range r.gauges {
		ms = append(ms, metric{name: promName(name), g: g})
	}
	for name, h := range r.hists {
		ms = append(ms, metric{name: promName(name), h: h})
	}
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })

	bw := bufio.NewWriter(w)
	for _, m := range ms {
		switch {
		case m.c != nil:
			bw.WriteString("# TYPE " + m.name + " counter\n")
			bw.WriteString(m.name + " " + strconv.FormatInt(m.c.Value(), 10) + "\n")
		case m.g != nil:
			bw.WriteString("# TYPE " + m.name + " gauge\n")
			bw.WriteString(m.name + " " + promFloat(m.g.Value()) + "\n")
		default:
			writePromHistogram(bw, m.name, m.h)
		}
	}
	return bw.Flush()
}

// writePromHistogram emits one histogram family: cumulative buckets over the
// nonzero power-of-two bounds, the mandatory +Inf bucket, then sum and count.
func writePromHistogram(bw *bufio.Writer, name string, h *Histogram) {
	bw.WriteString("# TYPE " + name + " histogram\n")
	var cum int64
	for k := 0; k < histBuckets; k++ {
		n := h.bkt[k].Load()
		if n == 0 {
			continue
		}
		cum += n
		if k >= 63 {
			// The top bucket's bound overflows int64; it folds into +Inf.
			continue
		}
		le := strconv.FormatInt(int64(1)<<uint(k), 10)
		bw.WriteString(name + `_bucket{le="` + le + `"} ` + strconv.FormatInt(cum, 10) + "\n")
	}
	bw.WriteString(name + `_bucket{le="+Inf"} ` + strconv.FormatInt(cum, 10) + "\n")
	bw.WriteString(name + "_sum " + strconv.FormatInt(h.sum.Load(), 10) + "\n")
	bw.WriteString(name + "_count " + strconv.FormatInt(h.count.Load(), 10) + "\n")
}

// WritePrometheus writes the recorder's metrics in the Prometheus text
// exposition format, refreshing the same ledger gauges WriteMetricsJSON
// refreshes so both exports describe identical state. It is a no-op on a
// nil recorder.
func (r *Recorder) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.refreshLedgerGauges()
	return r.reg.WritePrometheus(w)
}
