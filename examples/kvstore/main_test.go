package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"github.com/quartz-emu/quartz/internal/golden"
)

// TestOutputGolden pins the example's output. Every figure it prints is
// simulated, so the bytes are the same on every run and every host; any
// change means the simulated results changed. Regenerate with
// `go test ./examples/kvstore -update` and review the diff.
func TestOutputGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, out.Bytes(), filepath.Join("testdata", "output.golden"))
}
