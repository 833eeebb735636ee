package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/quartz-emu/quartz/internal/obs"
)

// parse registers the shared flags on a fresh FlagSet and parses args.
func parse(t *testing.T, args ...string) *Obs {
	t.Helper()
	o, err := parseArgs(args)
	if err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return o
}

func parseArgs(args []string) (*Obs, error) {
	var o Obs
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o.Register(fs)
	return &o, fs.Parse(args)
}

// TestObsFlagValidation covers every upfront rejection of the shared flags;
// each error names the offending flag. The retired -ledger-format and
// -ledger-rotate-mb are refused at parse time, so a script still asking for
// a binary or rotated ledger fails instead of getting one JSONL file.
func TestObsFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"-ledger-out", "x"},
		{"-serve", ":0", "-serve-linger", "5s", "-serve-pprof"},
	} {
		if err := parse(t, args...).Validate(); err != nil {
			t.Errorf("%v rejected: %v", args, err)
		}
	}
	cases := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"bad format", []string{"-ledger-out", "x", "-ledger-format", "binary"}, "-ledger-format"},
		{"bad format without out", []string{"-ledger-format", "jsonl"}, "-ledger-format"},
		{"negative rotate", []string{"-ledger-out", "x", "-ledger-rotate-mb", "-5"}, "-ledger-rotate-mb"},
		{"rotate without out", []string{"-ledger-rotate-mb", "4"}, "-ledger-rotate-mb"},
		{"linger without serve", []string{"-serve-linger", "5s"}, "-serve-linger needs -serve"},
		{"negative linger", []string{"-serve", ":0", "-serve-linger", "-1s"}, "-serve-linger"},
		{"serve pprof without serve", []string{"-serve-pprof"}, "-serve-pprof needs -serve"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o, err := parseArgs(c.args)
			if err == nil {
				err = o.Validate()
			}
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestLingerEndsWithContext: the linger after a served run ends as soon as
// its context does (Ctrl-C cancels it), not after -serve-linger.
func TestLingerEndsWithContext(t *testing.T) {
	o := parse(t, "-serve", "127.0.0.1:0", "-serve-linger", "1h")
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	var stderr bytes.Buffer
	if err := o.Start(&stderr, Sources{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "test: serving introspection on http://127.0.0.1:") {
		t.Errorf("server not announced: %q", stderr.String())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := o.Finish(ctx, io.Discard); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("linger took %s after its context ended", d)
	}
}

// failSink refuses every record, as a full disk would.
type failSink struct{}

func (failSink) Append(obs.EpochRecord) error { return errors.New("disk full") }
func (failSink) Close() error                 { return nil }

// TestFinishExportsDespiteSinkError: a ledger sink that failed during the
// run does not cost the run its other exports. The trace falls back to the
// in-memory ledger, the metrics file is still written, and Finish reports
// the sink's error.
func TestFinishExportsDespiteSinkError(t *testing.T) {
	dir := t.TempDir()
	tracePath, metricsPath := filepath.Join(dir, "trace.json"), filepath.Join(dir, "metrics.json")
	o := parse(t, "-ledger-out", filepath.Join(dir, "ledger.jsonl"), "-trace", tracePath, "-metrics-out", metricsPath)
	defer o.Close()
	if err := o.Start(io.Discard, Sources{}); err != nil {
		t.Fatal(err)
	}
	// Swap the file sink for one that fails on every append.
	if err := o.Recorder().CloseSink(); err != nil {
		t.Fatal(err)
	}
	if err := o.Recorder().AttachSink(failSink{}, 0); err != nil {
		t.Fatal(err)
	}
	const epochs = 3
	for range epochs {
		o.Recorder().EpochClosed(obs.EpochRecord{Thread: "main", Reason: "max"})
	}
	err := o.Finish(context.Background(), io.Discard)
	if err == nil || !strings.Contains(err.Error(), "ledger sink: disk full") {
		t.Errorf("Finish = %v, want the sink's error", err)
	}
	if fi, err := os.Stat(metricsPath); err != nil || fi.Size() == 0 {
		t.Errorf("-metrics-out not written after a sink error: %v", err)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("-trace not written after a sink error: %v", err)
	}
	var tr struct {
		OtherData struct {
			Retained int `json:"epochs_retained"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if tr.OtherData.Retained != epochs {
		t.Errorf("trace rendered %d epochs from memory, want %d", tr.OtherData.Retained, epochs)
	}
}
