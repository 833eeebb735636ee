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

// TestCalibrationTable: an exact calibration point maps to its register, a
// target between two points interpolates linearly, and targets outside the
// table clamp to its ends.
func TestCalibrationTable(t *testing.T) {
	table := calTable{
		{register: 512, bandwidth: 10e9},
		{register: 1024, bandwidth: 20e9},
		{register: 2048, bandwidth: 38e9},
		{register: 4095, bandwidth: 38.4e9},
	}
	for _, c := range []struct {
		target float64
		want   uint16
	}{
		{20e9, 1024}, // exact point
		{15e9, 768},  // halfway between 10 and 20 GB/s
		{29e9, 1536}, // halfway between 20 and 38 GB/s
		{1e9, 512},   // below the table: clamps low
		{1e12, 4095}, // above the table: clamps high
		{38.4e9, 4095},
	} {
		reg, err := table.registerFor(c.target)
		if err != nil {
			t.Fatal(err)
		}
		if reg != c.want {
			t.Errorf("registerFor(%g) = %d, want %d", c.target, reg, c.want)
		}
	}
}

// TestCalibrationTableValidation: an empty table has no register to give.
func TestCalibrationTableValidation(t *testing.T) {
	if _, err := (calTable{}).registerFor(1e9); err == nil {
		t.Error("empty table accepted")
	}
}
