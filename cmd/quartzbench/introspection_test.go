package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/quartz-emu/quartz/internal/obs"
)

// TestObsFlagValidationUpfront: bad flag combinations must exit 2 before
// any experiment runs, each with an error naming the offending flag.
func TestObsFlagValidationUpfront(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of stderr
	}{
		{"bad format", []string{"-exp", "table1", "-ledger-out", "x", "-ledger-format", "csv"}, "-ledger-format"},
		{"negative parallel", []string{"-exp", "table1", "-parallel", "-1"}, "-parallel"},
		{"negative rotate", []string{"-exp", "table1", "-ledger-out", "x", "-ledger-rotate-mb", "-5"}, "-ledger-rotate-mb"},
		{"rotate without out", []string{"-exp", "table1", "-ledger-rotate-mb", "4"}, "-ledger-rotate-mb needs -ledger-out"},
		{"linger without serve", []string{"-exp", "table1", "-serve-linger", "5s"}, "-serve-linger needs -serve"},
		{"negative linger", []string{"-exp", "table1", "-serve", ":0", "-serve-linger", "-1s"}, "-serve-linger"},
		{"serve with list", []string{"-list", "-serve", ":0"}, "-serve"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, stdout, stderr := runCLI(t, c.args...)
			if code != 2 {
				t.Fatalf("exit = %d, want 2; stderr: %s", code, stderr)
			}
			if !strings.Contains(stderr, c.want) {
				t.Errorf("stderr %q does not mention %q", stderr, c.want)
			}
			if strings.Contains(stdout, "== ") {
				t.Error("experiments ran despite invalid flags")
			}
		})
	}
}

// TestServePprofNeedsServe: -serve-pprof only makes sense with a live
// -serve endpoint.
func TestServePprofNeedsServe(t *testing.T) {
	code, _, stderr := runCLI(t, "-exp", "table1", "-serve-pprof")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "-serve-pprof") || !strings.Contains(stderr, "-serve") {
		t.Errorf("stderr does not explain the -serve-pprof/-serve dependency: %q", stderr)
	}
}

// TestLedgerSinkUnwritablePathRejected: a sink that cannot be opened is a
// usage error before the suite starts.
func TestLedgerSinkUnwritablePathRejected(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no", "such", "dir", "ledger.jsonl")
	code, _, stderr := runCLI(t, "-exp", "table1", "-ledger-out", bad)
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "ledger") {
		t.Errorf("stderr does not mention the ledger sink: %q", stderr)
	}
}

// TestLedgerStreamingReconciles is the acceptance check: with a sink
// attached, a quick suite streams EVERY epoch record to disk — the decoded
// count equals the quartz.epochs.closed counter, sequence numbers are dense,
// and nothing is reported dropped.
func TestLedgerStreamingReconciles(t *testing.T) {
	for _, format := range []string{"jsonl", "binary"} {
		t.Run(format, func(t *testing.T) {
			dir := t.TempDir()
			ledgerPath := filepath.Join(dir, "ledger."+format)
			metricsPath := filepath.Join(dir, "metrics.json")
			code, _, stderr := runCLI(t, "-exp", "overhead",
				"-ledger-out", ledgerPath, "-ledger-format", format,
				"-metrics-out", metricsPath)
			if code != 0 {
				t.Fatalf("exit = %d, stderr: %s", code, stderr)
			}
			if strings.Contains(stderr, "dropped") {
				t.Errorf("drop warning with a sink attached: %q", stderr)
			}

			recs, err := obs.ReadLedger(ledgerPath)
			if err != nil {
				t.Fatalf("ReadLedger: %v", err)
			}
			if len(recs) == 0 {
				t.Fatal("ledger stream is empty")
			}
			for i, rec := range recs {
				if rec.Seq != uint64(i) {
					t.Fatalf("record %d has seq %d: stream has gaps", i, rec.Seq)
				}
			}

			metricsRaw, err := os.ReadFile(metricsPath)
			if err != nil {
				t.Fatal(err)
			}
			var metrics map[string]any
			if err := json.Unmarshal(metricsRaw, &metrics); err != nil {
				t.Fatal(err)
			}
			closed, _ := metrics["quartz.epochs.closed"].(float64)
			if int64(closed) != int64(len(recs)) {
				t.Errorf("ledger has %d records but quartz.epochs.closed = %d",
					len(recs), int64(closed))
			}
			if dropped, _ := metrics["obs.ledger.dropped"].(float64); dropped != 0 {
				t.Errorf("obs.ledger.dropped = %v with a sink attached, want 0", dropped)
			}
			if total, _ := metrics["obs.ledger.total"].(float64); int64(total) != int64(len(recs)) {
				t.Errorf("obs.ledger.total = %v, ledger has %d", total, len(recs))
			}
		})
	}
}

// TestServeStartsAndStops: -serve on an ephemeral port must bring the
// introspection server up (announced on stderr) and exit cleanly with the
// run.
func TestServeStartsAndStops(t *testing.T) {
	code, _, stderr := runCLI(t, "-exp", "table1", "-serve", "127.0.0.1:0")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "serving introspection on") {
		t.Errorf("server address not announced on stderr: %q", stderr)
	}
	if !strings.Contains(stderr, "http://127.0.0.1:") {
		t.Errorf("announcement has no dialable URL: %q", stderr)
	}
}
