// Command quartztop is a live terminal monitor for a running emulation: it
// polls a quartzbench/quartzrun introspection server (-serve) and renders
// epochs/sec, the injected-delay share, histogram quantiles, throttle and
// token-bucket activity, traffic-scenario progress and per-experiment job
// progress — top(1) for an emulated memory system.
//
// Usage:
//
//	quartzbench -exp all -scale full -serve :8077 &
//	quartztop -addr http://127.0.0.1:8077
//
//	quartztop -addr http://127.0.0.1:8077 -interval 5s
//	quartztop -addr http://127.0.0.1:8077 -once       # one probe, no TUI
//
// -once fetches /metrics, /ledger and /runs once, validates the responses,
// prints a one-shot summary and exits — the smoke-test mode make
// serve-smoke uses.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("quartztop", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addrFlag     = fs.String("addr", "http://127.0.0.1:8077", "introspection server base URL (quartzbench/quartzrun -serve)")
		intervalFlag = fs.Duration("interval", 2*time.Second, "poll interval")
		onceFlag     = fs.Bool("once", false, "probe /metrics, /ledger and /runs once, print a summary, exit")
		iterFlag     = fs.Int("n", 0, "stop after this many refreshes (0 = until interrupted)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *intervalFlag <= 0 {
		fmt.Fprintln(stderr, "quartztop: -interval must be > 0")
		return 2
	}
	base := strings.TrimSuffix(*addrFlag, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	c := &client{base: base, hc: &http.Client{Timeout: 10 * time.Second}}

	if *onceFlag {
		if err := probeOnce(c, stdout); err != nil {
			fmt.Fprintf(stderr, "quartztop: %v\n", err)
			return 1
		}
		return 0
	}
	if err := monitor(c, *intervalFlag, *iterFlag, stdout); err != nil {
		fmt.Fprintf(stderr, "quartztop: %v\n", err)
		return 1
	}
	return 0
}

// client wraps the introspection endpoints.
type client struct {
	base string
	hc   *http.Client
}

// getJSON fetches path and decodes the JSON body into v. notFoundOK makes a
// 404 a nil result instead of an error (the /runs endpoint without a
// runner).
func (c *client) getJSON(path string, v any, notFoundOK bool) (found bool, err error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if notFoundOK && resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body)
		return false, nil
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return false, fmt.Errorf("GET %s: %s: %s", path, resp.Status, strings.TrimSpace(string(body)))
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return false, fmt.Errorf("GET %s: invalid JSON: %v", path, err)
	}
	return true, nil
}

// metrics is a decoded /metrics snapshot.
type metrics map[string]any

// counter reads a counter/gauge value (both decode as float64).
func (m metrics) counter(name string) float64 {
	v, _ := m[name].(float64)
	return v
}

// histQ reads quantile q ("p50"...) of histogram name.
func (m metrics) histQ(name, q string) float64 {
	h, _ := m[name].(map[string]any)
	v, _ := h[q].(float64)
	return v
}

// ledgerPage mirrors obshttp.LedgerPage (decoded loosely: quartztop only
// needs counts and sequence numbers).
type ledgerPage struct {
	Total     uint64           `json:"total"`
	Next      uint64           `json:"next"`
	Truncated bool             `json:"truncated"`
	Records   []map[string]any `json:"records"`
}

// runsPage mirrors runner.StatusSnapshot.
type runsPage struct {
	Running     bool    `json:"running"`
	ElapsedS    float64 `json:"elapsed_s"`
	TotalJobs   int     `json:"total_jobs"`
	DoneJobs    int     `json:"done_jobs"`
	FailedJobs  int     `json:"failed_jobs"`
	Experiments []struct {
		ID         string `json:"id"`
		TotalJobs  int    `json:"total_jobs"`
		DoneJobs   int    `json:"done_jobs"`
		FailedJobs int    `json:"failed_jobs"`
		State      string `json:"state"`
	} `json:"experiments"`
	LastJob *struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	} `json:"last_job"`
}

// probeOnce is the -once smoke mode: fetch every pollable endpoint,
// validate, summarize.
func probeOnce(c *client, w io.Writer) error {
	var m metrics
	if _, err := c.getJSON("/metrics", &m, false); err != nil {
		return err
	}
	var lp ledgerPage
	if _, err := c.getJSON("/ledger?since=0&limit=5", &lp, false); err != nil {
		return err
	}
	var runs runsPage
	haveRuns, err := c.getJSON("/runs", &runs, true)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "metrics: %d entries, epochs closed %.0f\n", len(m), m.counter("quartz.epochs.closed"))
	if ops := m.counter("quartz.ops.count"); ops > 0 {
		fmt.Fprintf(w, "traffic: %.0f ops (read %.0f, update %.0f, scan %.0f), op p99 %s\n",
			ops, m.counter("quartz.ops.read.count"), m.counter("quartz.ops.update.count"),
			m.counter("quartz.ops.scan.count"), fmtNS(m.histQ("quartz.ops.latency_ns", "p99")))
	}
	fmt.Fprintf(w, "ledger: total %d, page of %d records (next=%d)\n", lp.Total, len(lp.Records), lp.Next)
	if haveRuns {
		fmt.Fprintf(w, "runs: %d/%d jobs done, %d failed, running=%v\n",
			runs.DoneJobs, runs.TotalJobs, runs.FailedJobs, runs.Running)
	} else {
		fmt.Fprintln(w, "runs: no experiment runner attached")
	}
	if n, found, err := c.getVTProf(); err != nil {
		return err
	} else if found {
		fmt.Fprintf(w, "vtprof: %d bytes\n", n)
	} else {
		fmt.Fprintln(w, "vtprof: no virtual-time profiler attached")
	}
	return nil
}

// getVTProf fetches /vtprof and reports the profile size; a 404 (no profiler
// attached) is a normal outcome, not an error.
func (c *client) getVTProf() (n int64, found bool, err error) {
	resp, err := c.hc.Get(c.base + "/vtprof")
	if err != nil {
		return 0, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body)
		return 0, false, nil
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return 0, false, fmt.Errorf("GET /vtprof: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	n, err = io.Copy(io.Discard, resp.Body)
	if err != nil {
		return 0, false, fmt.Errorf("GET /vtprof: %v", err)
	}
	return n, true, nil
}

// sample is one poll of the server.
type sample struct {
	at      time.Time
	metrics metrics
	runs    *runsPage
}

// poll fetches one sample.
func poll(c *client) (*sample, error) {
	s := &sample{at: time.Now()}
	if _, err := c.getJSON("/metrics", &s.metrics, false); err != nil {
		return nil, err
	}
	var runs runsPage
	if found, err := c.getJSON("/runs", &runs, true); err == nil && found {
		s.runs = &runs
	}
	return s, nil
}

// monitor is the live loop: poll, render, repeat.
func monitor(c *client, interval time.Duration, iters int, w io.Writer) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var prev *sample
	for n := 0; iters == 0 || n < iters; n++ {
		cur, err := poll(c)
		if err != nil {
			if prev == nil {
				return err
			}
			fmt.Fprintf(w, "\n(connection lost: %v — run finished?)\n", err)
			return nil
		}
		fmt.Fprint(w, "\x1b[2J\x1b[H") // clear screen, home cursor
		render(w, c.base, cur, prev)
		prev = cur
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(interval):
		}
	}
	return nil
}

// render draws one frame.
func render(w io.Writer, base string, cur, prev *sample) {
	m := cur.metrics
	fmt.Fprintf(w, "quartztop — %s — %s\n\n", base, cur.at.Format("15:04:05"))

	epochs := m.counter("quartz.epochs.closed")
	rate := 0.0
	if prev != nil {
		if dt := cur.at.Sub(prev.at).Seconds(); dt > 0 {
			rate = (epochs - prev.metrics.counter("quartz.epochs.closed")) / dt
		}
	}
	computed := m.counter("quartz.delay.computed_ns")
	injected := m.counter("quartz.delay.injected_ns")
	share := 100.0
	if computed > 0 {
		share = injected / computed * 100
	}
	fmt.Fprintf(w, "  epochs closed   %12.0f   (%.0f/s)\n", epochs, rate)
	fmt.Fprintf(w, "    by reason     max %.0f  sync %.0f  end %.0f\n",
		m.counter("quartz.epochs.reason.max"), m.counter("quartz.epochs.reason.sync"),
		m.counter("quartz.epochs.reason.end"))
	fmt.Fprintf(w, "  delay injected  %10.1fms   (%.1f%% of computed %.1fms)\n",
		injected/1e6, share, computed/1e6)
	fmt.Fprintf(w, "  epoch len p50/p95/p99   %s / %s / %s\n",
		fmtNS(m.histQ("quartz.epoch.len_ns", "p50")),
		fmtNS(m.histQ("quartz.epoch.len_ns", "p95")),
		fmtNS(m.histQ("quartz.epoch.len_ns", "p99")))
	fmt.Fprintf(w, "  epoch delay p50/p95/p99 %s / %s / %s\n",
		fmtNS(m.histQ("quartz.epoch.delay_ns", "p50")),
		fmtNS(m.histQ("quartz.epoch.delay_ns", "p95")),
		fmtNS(m.histQ("quartz.epoch.delay_ns", "p99")))
	fmt.Fprintf(w, "  throttle writes %.0f read / %.0f write\n",
		m.counter("mem.throttle.programmed.read"), m.counter("mem.throttle.programmed.write"))

	renderTraffic(w, cur, prev)

	if cur.runs != nil {
		r := cur.runs
		state := "done"
		if r.Running {
			state = "running"
		}
		fmt.Fprintf(w, "\n  suite %s — %d/%d jobs, %d failed, %.1fs\n",
			state, r.DoneJobs, r.TotalJobs, r.FailedJobs, r.ElapsedS)
		for _, e := range r.Experiments {
			fmt.Fprintf(w, "    %-14s %s %3d/%-3d %-7s", e.ID,
				bar(e.DoneJobs, e.TotalJobs, 20), e.DoneJobs, e.TotalJobs, e.State)
			if e.FailedJobs > 0 {
				fmt.Fprintf(w, "  %d failed", e.FailedJobs)
			}
			fmt.Fprintln(w)
		}
		if r.LastJob != nil {
			fmt.Fprintf(w, "    last: %s (%s)\n", r.LastJob.ID, r.LastJob.Status)
		}
	}

	// A few other interesting counters, if present.
	var extras []string
	for _, name := range []string{"runner.jobs.ok", "runner.jobs.failed", "sim.dispatches", "simos.sync.contended_waits"} {
		if v, ok := m[name].(float64); ok && v > 0 {
			extras = append(extras, fmt.Sprintf("%s %.0f", name, v))
		}
	}
	sort.Strings(extras)
	if len(extras) > 0 {
		fmt.Fprintf(w, "\n  %s\n", strings.Join(extras, "   "))
	}
	fmt.Fprintln(w, "\n  (Ctrl-C to quit)")
}

// renderTraffic draws the serving-traffic panel: cumulative op counts and
// latency quantiles from the quartz.ops.* metric family, a wall-clock op rate
// from the delta between polls, and the running scenario's progress from the
// quartz.traffic.* gauges. Hidden until a traffic scenario has run.
func renderTraffic(w io.Writer, cur, prev *sample) {
	m := cur.metrics
	ops := m.counter("quartz.ops.count")
	clients := m.counter("quartz.traffic.clients")
	if ops == 0 && clients == 0 {
		return
	}
	wallRate := 0.0
	if prev != nil {
		if dt := cur.at.Sub(prev.at).Seconds(); dt > 0 {
			wallRate = (ops - prev.metrics.counter("quartz.ops.count")) / dt
		}
	}
	fmt.Fprintf(w, "  traffic ops     %12.0f   (%.0f/s wall)   read %.0f  update %.0f  scan %.0f\n",
		ops, wallRate,
		m.counter("quartz.ops.read.count"), m.counter("quartz.ops.update.count"),
		m.counter("quartz.ops.scan.count"))
	fmt.Fprintf(w, "  op lat p50/p95/p99      %s / %s / %s\n",
		fmtNS(m.histQ("quartz.ops.latency_ns", "p50")),
		fmtNS(m.histQ("quartz.ops.latency_ns", "p95")),
		fmtNS(m.histQ("quartz.ops.latency_ns", "p99")))
	if clients > 0 {
		done, total := m.counter("quartz.traffic.done"), m.counter("quartz.traffic.total_ops")
		fmt.Fprintf(w, "  scenario        %s clients  %s %s/%s ops  %.0f ops/s sim  p99 %s\n",
			fmtCount(clients), bar(int(done), int(total), 20), fmtCount(done), fmtCount(total),
			m.counter("quartz.traffic.ops_per_sec"), fmtNS(m.counter("quartz.traffic.p99_ns")))
	}
}

// fmtCount renders a count compactly: exact below 100k, k/M-suffixed above
// (a million-client scenario reports 1.0M clients and multi-million op
// totals, which would otherwise blow out the panel's columns).
func fmtCount(n float64) string {
	switch {
	case n >= 1e6:
		return fmt.Sprintf("%.1fM", n/1e6)
	case n >= 1e5:
		return fmt.Sprintf("%.0fk", n/1e3)
	default:
		return fmt.Sprintf("%.0f", n)
	}
}

// bar renders a width-character progress bar.
func bar(done, total, width int) string {
	if total <= 0 {
		return strings.Repeat("-", width)
	}
	filled := done * width / total
	if filled > width {
		filled = width
	}
	return strings.Repeat("#", filled) + strings.Repeat(".", width-filled)
}

// fmtNS renders a nanosecond quantity with an adaptive unit.
func fmtNS(ns float64) string {
	switch {
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fus", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}
