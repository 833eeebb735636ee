package cli

import (
	"bytes"
	"context"
	"flag"
	"io"
	"strings"
	"testing"
	"time"
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
