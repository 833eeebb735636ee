package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestTinyCalibration: a two-point calibration prints one row per register
// value plus the four target lookups, and exits 0.
func TestTinyCalibration(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-points", "2", "-lines", "256", "-threads", "2"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0; stderr: %s", code, stderr.String())
	}
	var rows, targets int
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		switch {
		case strings.HasPrefix(line, "# target "):
			targets++
		case !strings.HasPrefix(line, "#"):
			rows++
		}
	}
	if rows != 2 || targets != 4 {
		t.Errorf("got %d register rows and %d target lines, want 2 and 4:\n%s", rows, targets, stdout.String())
	}
}

// TestBadFlagsExit2: every bad value is rejected before any machine is
// built, naming the flag. -points above 4096 would make the register step
// zero and the calibration loop endless.
func TestBadFlagsExit2(t *testing.T) {
	for _, c := range []struct {
		args []string
		flag string
	}{
		{[]string{"-preset", "pentium"}, "-preset"},
		{[]string{"-points", "1"}, "-points"},
		{[]string{"-points", "0"}, "-points"},
		{[]string{"-points", "4097"}, "-points"},
		{[]string{"-points", "100000"}, "-points"},
		{[]string{"-threads", "0"}, "-threads"},
		{[]string{"-threads", "-3"}, "-threads"},
		{[]string{"-lines", "3", "-threads", "4"}, "-lines"},
		{[]string{"-lines", "-1"}, "-lines"},
		{[]string{"-bogus"}, "-bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", c.args, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), c.flag) {
			t.Errorf("%v: stderr %q does not name %s", c.args, stderr.String(), c.flag)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v printed %q", c.args, stdout.String())
		}
	}
}
