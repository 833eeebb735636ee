package obshttp

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/quartz-emu/quartz/internal/obs"
	"github.com/quartz-emu/quartz/internal/runner"
	"github.com/quartz-emu/quartz/internal/sim"
)

func testRecord(i int) obs.EpochRecord {
	t := sim.Time(i+1) * sim.Millisecond
	return obs.EpochRecord{
		PID: 1, TID: i % 4, Start: t, End: t + sim.Millisecond,
		Reason:      "max",
		StallCycles: uint64(100 * (i + 1)), L3MissLocal: uint64(50 + i),
		Delay: sim.Time(i) * sim.Microsecond, Injected: sim.Time(i) * sim.Microsecond,
	}
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
	return resp
}

// TestMetricsEndpoint: /metrics must serve the exact registry snapshot the
// -metrics-out export writes, so the two always reconcile.
func TestMetricsEndpoint(t *testing.T) {
	rec := obs.New(0)
	for i := 0; i < 7; i++ {
		rec.EpochClosed(testRecord(i))
	}
	srv := httptest.NewServer(Handler(Options{Recorder: rec}))
	defer srv.Close()

	var metrics map[string]json.RawMessage
	resp := getJSON(t, srv.URL+"/metrics", &metrics)
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var closed int64
	if err := json.Unmarshal(metrics["quartz.epochs.closed"], &closed); err != nil || closed != 7 {
		t.Errorf("quartz.epochs.closed = %s (err %v), want 7", metrics["quartz.epochs.closed"], err)
	}
	// Histogram entries must carry the quantile summaries.
	var hist struct {
		P50 float64 `json:"p50"`
	}
	raw, ok := metrics["quartz.epoch.len_ns"]
	if !ok {
		t.Fatalf("quartz.epoch.len_ns missing; have %d keys", len(metrics))
	}
	if err := json.Unmarshal(raw, &hist); err != nil || hist.P50 <= 0 {
		t.Errorf("epoch length p50 = %v (err %v), want > 0", hist.P50, err)
	}
}

// TestLedgerCursor: paging through /ledger with ?since cursors must visit
// every record exactly once, in order, and terminate.
func TestLedgerCursor(t *testing.T) {
	rec := obs.New(0)
	const n = 25
	for i := 0; i < n; i++ {
		rec.EpochClosed(testRecord(i))
	}
	srv := httptest.NewServer(Handler(Options{Recorder: rec}))
	defer srv.Close()

	var got []obs.EpochRecord
	since := uint64(0)
	for pages := 0; ; pages++ {
		if pages > n {
			t.Fatal("cursor did not terminate")
		}
		var page LedgerPage
		getJSON(t, fmt.Sprintf("%s/ledger?since=%d&limit=10", srv.URL, since), &page)
		if page.Total != n {
			t.Fatalf("total = %d, want %d", page.Total, n)
		}
		if page.Truncated {
			t.Fatal("truncated reported with full retention")
		}
		got = append(got, page.Records...)
		if len(page.Records) == 0 {
			if page.More {
				t.Fatal("empty page claims more")
			}
			break
		}
		if len(page.Records) == 10 != page.More && uint64(len(got)) < n {
			t.Fatalf("page of %d records, more=%v, collected %d", len(page.Records), page.More, len(got))
		}
		since = page.Next
	}
	if len(got) != n {
		t.Fatalf("cursor visited %d records, want %d", len(got), n)
	}
	for i, r := range got {
		if r.Seq != uint64(i) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
	}
}

// TestLedgerTruncation: when the tail ring has evicted early records, the
// page must say so rather than silently skipping them.
func TestLedgerTruncation(t *testing.T) {
	rec := obs.New(0)
	if err := rec.AttachSink(obs.NewWriterSink(discardWriter{}, obs.FormatJSONL), 4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		rec.EpochClosed(testRecord(i))
	}
	srv := httptest.NewServer(Handler(Options{Recorder: rec}))
	defer srv.Close()

	var page LedgerPage
	getJSON(t, srv.URL+"/ledger?since=0", &page)
	if !page.Truncated {
		t.Error("truncation not reported")
	}
	if len(page.Records) != 4 || page.Records[0].Seq != 6 {
		t.Errorf("got %d records starting at seq %v, want ring tail 6..9",
			len(page.Records), page.Records)
	}
	if page.Total != 10 {
		t.Errorf("total = %d, want 10", page.Total)
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestLedgerBadQuery: malformed cursors are client errors, not 500s or
// silent defaults.
func TestLedgerBadQuery(t *testing.T) {
	srv := httptest.NewServer(Handler(Options{Recorder: obs.New(0)}))
	defer srv.Close()
	for _, q := range []string{"?since=abc", "?limit=-1", "?since=1.5"} {
		resp, err := http.Get(srv.URL + "/ledger" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /ledger%s: %s, want 400", q, resp.Status)
		}
	}
}

// TestRunsEndpoint: with a board attached /runs serves the suite snapshot;
// without one it 404s so pollers can distinguish "no runner" from "empty".
func TestRunsEndpoint(t *testing.T) {
	board := runner.NewStatusBoard()
	board.SuiteStarted([]string{"overhead", "bandwidth"}, []int{3, 2})
	board.JobFinished(runner.Result{JobID: "overhead/0", Experiment: "overhead", Status: runner.StatusOK})
	board.JobFinished(runner.Result{JobID: "overhead/1", Experiment: "overhead", Status: runner.StatusFailed})
	board.ExperimentFinished("bandwidth", errors.New("boom"))

	srv := httptest.NewServer(Handler(Options{Recorder: obs.New(0), Status: board}))
	defer srv.Close()

	var snap runner.StatusSnapshot
	getJSON(t, srv.URL+"/runs", &snap)
	if snap.TotalJobs != 5 || snap.DoneJobs != 2 || snap.FailedJobs != 1 {
		t.Errorf("snapshot totals: %+v", snap)
	}
	if len(snap.Experiments) != 2 {
		t.Fatalf("%d experiments", len(snap.Experiments))
	}

	bare := httptest.NewServer(Handler(Options{Recorder: obs.New(0)}))
	defer bare.Close()
	resp, err := http.Get(bare.URL + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("no board: %s, want 404", resp.Status)
	}
}

// TestConcurrentClosesAndPolling: hammer EpochClosed while polling every
// endpoint; run under -race this is the data-race gate for the whole plane.
func TestConcurrentClosesAndPolling(t *testing.T) {
	rec := obs.New(0)
	if err := rec.AttachSink(obs.NewWriterSink(discardWriter{}, obs.FormatJSONL), 64); err != nil {
		t.Fatal(err)
	}
	board := runner.NewStatusBoard()
	board.SuiteStarted([]string{"x"}, []int{1000})
	srv := httptest.NewServer(Handler(Options{Recorder: rec, Status: board}))
	defer srv.Close()

	const minPolls = 20
	stop := make(chan struct{})
	var closers, pollers sync.WaitGroup
	for w := 0; w < 4; w++ {
		closers.Add(1)
		go func() {
			defer closers.Done()
			for i := 0; i < 200; i++ {
				rec.EpochClosed(testRecord(i))
				if i%50 == 0 {
					board.JobFinished(runner.Result{JobID: "x/j", Experiment: "x", Status: runner.StatusOK})
				}
			}
		}()
	}
	for _, path := range []string{"/metrics", "/ledger?since=0", "/runs", "/healthz"} {
		pollers.Add(1)
		go func(path string) {
			defer pollers.Done()
			for n := 0; ; n++ {
				if n >= minPolls {
					select {
					case <-stop:
						return
					default:
					}
				}
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s: %s", path, resp.Status)
				}
				resp.Body.Close()
			}
		}(path)
	}
	// Each poller makes at least minPolls requests and keeps polling until
	// the last epoch has closed.
	closers.Wait()
	close(stop)
	pollers.Wait()
	if err := rec.SinkErr(); err != nil {
		t.Errorf("sink error under load: %v", err)
	}
	if got := rec.Total(); got != 800 {
		t.Errorf("total = %d, want 800", got)
	}
}

// TestStartServesAndCloses: the background Server binds an ephemeral port,
// reports a dialable URL, serves, and shuts down.
func TestStartServesAndCloses(t *testing.T) {
	rec := obs.New(0)
	rec.EpochClosed(testRecord(0))
	s, err := Start("127.0.0.1:0", Options{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	url := s.URL()
	if !strings.HasPrefix(url, "http://127.0.0.1:") {
		t.Fatalf("URL = %q", url)
	}
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Error("server still reachable after Close")
	}
}

// TestIndexAndMethodFiltering: the mux serves the index only at "/" exactly
// and rejects non-GET methods.
func TestIndexAndMethodFiltering(t *testing.T) {
	srv := httptest.NewServer(Handler(Options{Recorder: obs.New(0)}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("index: %s", resp.Status)
	}
	resp, err = http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path: %s, want 404", resp.Status)
	}
	resp, err = http.Post(srv.URL+"/metrics", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics: %s, want 405", resp.Status)
	}
}

// TestMetricsPrometheusFormat: ?format=prometheus switches /metrics to the
// text exposition; the default JSON stays unchanged; an unknown format is a
// client error.
func TestMetricsPrometheusFormat(t *testing.T) {
	rec := obs.New(0)
	rec.EpochClosed(testRecord(0))
	srv := httptest.NewServer(Handler(Options{Recorder: rec}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prometheus format: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE quartz_epochs_closed counter",
		"quartz_epochs_closed 1",
		"# TYPE quartz_epoch_len_ns histogram",
		`quartz_epoch_len_ns_bucket{le="+Inf"} 1`,
		"quartz_epoch_len_ns_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// The default stays JSON.
	var metrics map[string]json.RawMessage
	getJSON(t, srv.URL+"/metrics", &metrics)
	if _, ok := metrics["quartz.epochs.closed"]; !ok {
		t.Error("default JSON export lost quartz.epochs.closed")
	}

	resp, err = http.Get(srv.URL + "/metrics?format=xml")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("format=xml: %s, want 400", resp.Status)
	}
}

// TestVTProfEndpoint: /vtprof serves the profile bytes when a source is
// attached and 404s when none is, so pollers can distinguish "no profiler"
// from an error.
func TestVTProfEndpoint(t *testing.T) {
	payload := []byte("\x1f\x8b-not-really-gzip-but-bytes")
	srv := httptest.NewServer(Handler(Options{
		Recorder: obs.New(0),
		VTProf:   func() ([]byte, error) { return payload, nil },
	}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/vtprof")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/vtprof: %s", resp.Status)
	}
	if !bytes.Equal(body, payload) {
		t.Errorf("/vtprof served %d bytes, want the %d profile bytes", len(body), len(payload))
	}

	bare := httptest.NewServer(Handler(Options{Recorder: obs.New(0)}))
	defer bare.Close()
	resp, err = http.Get(bare.URL + "/vtprof")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("no profiler: %s, want 404", resp.Status)
	}
}

// TestDebugPprofMount: /debug/pprof/ exists only when DebugPprof is set.
func TestDebugPprofMount(t *testing.T) {
	on := httptest.NewServer(Handler(Options{Recorder: obs.New(0), DebugPprof: true}))
	defer on.Close()
	resp, err := http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("DebugPprof on: /debug/pprof/ = %s, want 200", resp.Status)
	}

	off := httptest.NewServer(Handler(Options{Recorder: obs.New(0)}))
	defer off.Close()
	resp, err = http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DebugPprof off: /debug/pprof/ = %s, want 404", resp.Status)
	}
}
