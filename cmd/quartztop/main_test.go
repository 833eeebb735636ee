package main

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/quartz-emu/quartz/internal/obs"
	"github.com/quartz-emu/quartz/internal/obs/obshttp"
	"github.com/quartz-emu/quartz/internal/runner"
	"github.com/quartz-emu/quartz/internal/sim"
)

// testServer spins up a real introspection server with a populated recorder
// and status board, exactly what quartztop polls in production.
func testServer(t *testing.T, withBoard bool) *httptest.Server {
	t.Helper()
	rec := obs.New(0)
	for i := 0; i < 20; i++ {
		start := sim.Time(i) * sim.Millisecond
		rec.EpochClosed(obs.EpochRecord{
			PID: 1, TID: 0, Start: start, End: start + sim.Millisecond,
			Reason: "max", StallCycles: 5000, L3MissLocal: 100,
			Delay: 20 * sim.Microsecond, Injected: 18 * sim.Microsecond,
		})
	}
	o := obshttp.Options{Recorder: rec}
	if withBoard {
		board := runner.NewStatusBoard()
		board.SuiteStarted([]string{"overhead"}, []int{4})
		board.JobFinished(runner.Result{JobID: "overhead/0", Experiment: "overhead", Status: runner.StatusOK})
		o.Status = board
	}
	srv := httptest.NewServer(obshttp.Handler(o))
	t.Cleanup(srv.Close)
	return srv
}

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestOnceProbesAllEndpoints: the -once smoke mode must validate /metrics,
// /ledger and /runs and summarize each.
func TestOnceProbesAllEndpoints(t *testing.T) {
	srv := testServer(t, true)
	code, stdout, stderr := runCLI(t, "-addr", srv.URL, "-once")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "epochs closed 20") {
		t.Errorf("metrics summary wrong:\n%s", stdout)
	}
	if !strings.Contains(stdout, "ledger: total 20, page of 5 records") {
		t.Errorf("ledger summary wrong:\n%s", stdout)
	}
	if !strings.Contains(stdout, "runs: 1/4 jobs done") {
		t.Errorf("runs summary wrong:\n%s", stdout)
	}
	// No profiler attached: /vtprof 404 is a normal outcome, not an error.
	if !strings.Contains(stdout, "vtprof: no virtual-time profiler attached") {
		t.Errorf("missing no-profiler line:\n%s", stdout)
	}
}

// TestOnceVTProf: with a profiler attached, the probe reports the profile's
// byte size instead of the 404 line.
func TestOnceVTProf(t *testing.T) {
	rec := obs.New(0)
	payload := []byte("pprof-bytes-here")
	srv := httptest.NewServer(obshttp.Handler(obshttp.Options{
		Recorder: rec,
		VTProf:   func() ([]byte, error) { return payload, nil },
	}))
	t.Cleanup(srv.Close)
	code, stdout, stderr := runCLI(t, "-addr", srv.URL, "-once")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	if want := fmt.Sprintf("vtprof: %d bytes", len(payload)); !strings.Contains(stdout, want) {
		t.Errorf("missing %q:\n%s", want, stdout)
	}
}

// TestOnceWithoutRunner: /runs 404 is reported, not treated as an error.
func TestOnceWithoutRunner(t *testing.T) {
	srv := testServer(t, false)
	code, stdout, stderr := runCLI(t, "-addr", srv.URL, "-once")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "runs: no experiment runner attached") {
		t.Errorf("missing no-runner line:\n%s", stdout)
	}
}

// TestOnceUnreachableServer: a dead server is exit 1 with a clear error.
func TestOnceUnreachableServer(t *testing.T) {
	code, _, stderr := runCLI(t, "-addr", "http://127.0.0.1:1", "-once")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(stderr, "quartztop:") {
		t.Errorf("stderr: %q", stderr)
	}
}

// TestMonitorRendersFrames: -n bounds the TUI loop so it renders frames and
// exits; the frame must carry the headline numbers.
func TestMonitorRendersFrames(t *testing.T) {
	srv := testServer(t, true)
	code, stdout, stderr := runCLI(t, "-addr", srv.URL, "-n", "2", "-interval", "10ms")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{
		"quartztop — " + srv.URL,
		"epochs closed",
		"epoch len p50/p95/p99",
		"suite running — 1/4 jobs",
		"overhead",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("frame missing %q:\n%s", want, stdout)
		}
	}
}

// trafficServer spins up an introspection server whose recorder has served
// traffic: quartz.ops.* metrics plus the quartz.traffic.* gauges.
func trafficServer(t *testing.T) *httptest.Server {
	t.Helper()
	rec := obs.New(0)
	reg := rec.Registry()
	reg.Counter("quartz.ops.count").Add(100)
	reg.Counter("quartz.ops.read.count").Add(70)
	reg.Counter("quartz.ops.update.count").Add(20)
	reg.Counter("quartz.ops.scan.count").Add(10)
	for i := int64(1); i <= 100; i++ {
		reg.Histogram("quartz.ops.latency_ns").Observe(i * 100)
	}
	rec.EpochClosed(obs.EpochRecord{PID: 1, Reason: "max", Delay: sim.Microsecond})
	rec.TrafficProgress(8, 50, 100, 123456, 9000)
	srv := httptest.NewServer(obshttp.Handler(obshttp.Options{Recorder: rec}))
	t.Cleanup(srv.Close)
	return srv
}

// TestOnceTrafficLine: with served traffic, -once prints the traffic summary
// line (what scripts/traffic-smoke.sh greps for).
func TestOnceTrafficLine(t *testing.T) {
	srv := trafficServer(t)
	code, stdout, stderr := runCLI(t, "-addr", srv.URL, "-once")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "traffic: 100 ops (read 70, update 20, scan 10)") {
		t.Errorf("traffic line wrong:\n%s", stdout)
	}
}

// TestOnceNoTrafficLine: without traffic metrics the line stays hidden.
func TestOnceNoTrafficLine(t *testing.T) {
	srv := testServer(t, false)
	_, stdout, _ := runCLI(t, "-addr", srv.URL, "-once")
	if strings.Contains(stdout, "traffic:") {
		t.Errorf("traffic line shown without traffic:\n%s", stdout)
	}
}

// TestMonitorTrafficPanel: the TUI frame shows the traffic panel with op
// counts and latency quantiles when a scenario has run, and the scenario
// progress line read from the quartz.traffic.* gauges.
func TestMonitorTrafficPanel(t *testing.T) {
	srv := trafficServer(t)
	code, stdout, stderr := runCLI(t, "-addr", srv.URL, "-n", "1", "-interval", "10ms")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{
		"traffic ops", "read 70", "update 20", "scan 10", "op lat p50/p95/p99",
		"8 clients", "50/100 ops", "123456 ops/s sim", "p99 9.0us",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("frame missing %q:\n%s", want, stdout)
		}
	}
}

// TestBadFlags: invalid invocations are usage errors.
func TestBadFlags(t *testing.T) {
	if code, _, _ := runCLI(t, "-interval", "0s"); code != 2 {
		t.Errorf("-interval 0: exit %d, want 2", code)
	}
	if code, _, _ := runCLI(t, "-bogus"); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
}

// TestAddrNormalization: a bare host:port gets the scheme prepended.
func TestAddrNormalization(t *testing.T) {
	srv := testServer(t, false)
	bare := strings.TrimPrefix(srv.URL, "http://")
	code, stdout, stderr := runCLI(t, "-addr", bare, "-once")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "epochs closed 20") {
		t.Errorf("probe over normalized addr failed:\n%s", stdout)
	}
}

func TestBar(t *testing.T) {
	if got := bar(0, 0, 4); got != "----" {
		t.Errorf("bar(0,0) = %q", got)
	}
	if got := bar(2, 4, 4); got != "##.." {
		t.Errorf("bar(2,4) = %q", got)
	}
	if got := bar(9, 4, 4); got != "####" {
		t.Errorf("bar overflow = %q", got)
	}
}

func TestFmtCount(t *testing.T) {
	cases := map[float64]string{
		0:         "0",
		512:       "512",
		16_384:    "16384",
		262_144:   "262k",
		1_048_576: "1.0M",
	}
	for in, want := range cases {
		if got := fmtCount(in); got != want {
			t.Errorf("fmtCount(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestFmtNS(t *testing.T) {
	cases := map[float64]string{
		12:      "12ns",
		1500:    "1.5us",
		2500000: "2.5ms",
	}
	for in, want := range cases {
		if got := fmtNS(in); got != want {
			t.Errorf("fmtNS(%v) = %q, want %q", in, got, want)
		}
	}
}
