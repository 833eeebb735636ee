package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.Mean != 3 || s.Min != 1 || s.Max != 5 {
		t.Errorf("summary = %+v", s)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s != (Summary{}) {
		t.Errorf("empty summary = %+v", s)
	}
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Min != 7 || s.Max != 7 {
		t.Errorf("single summary = %+v", s)
	}
}

func TestRelErr(t *testing.T) {
	tests := []struct {
		got, want, expect float64
	}{
		{110, 100, 0.1},
		{90, 100, 0.1},
		{100, 100, 0},
		{0, 0, 0},
		{-110, -100, 0.1},
	}
	for _, tt := range tests {
		if got := RelErr(tt.got, tt.want); math.Abs(got-tt.expect) > 1e-12 {
			t.Errorf("RelErr(%g,%g) = %g, want %g", tt.got, tt.want, got, tt.expect)
		}
	}
	if !math.IsInf(RelErr(1, 0), 1) {
		t.Error("RelErr(1,0) not +Inf")
	}
}

func TestSignedErr(t *testing.T) {
	if got := SignedErr(90, 100); math.Abs(got+0.1) > 1e-12 {
		t.Errorf("SignedErr(90,100) = %g, want -0.1", got)
	}
	if got := SignedErr(120, 100); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("SignedErr(120,100) = %g, want 0.2", got)
	}
}

func TestSummaryBoundsProperty(t *testing.T) {
	prop := func(raw []float64) bool {
		var xs []float64
		for _, x := range raw {
			// Bound magnitudes so the sum cannot overflow; the summary is
			// used on measurement data, not extreme-float corner cases.
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e150 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Min <= s.Mean && s.Mean <= s.Max
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
