package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.Stddev-math.Sqrt(2.5)) > 1e-12 {
		t.Errorf("stddev = %g, want sqrt(2.5)", s.Stddev)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Stddev != 0 || s.Min != 7 || s.Max != 7 {
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
		return s.Min <= s.Mean && s.Mean <= s.Max && s.Stddev >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAccumulatorMatchesSummarize(t *testing.T) {
	xs := []float64{4.5, -1, 0, 12.25, 3, 3, 8.75}
	var a Accumulator
	for _, x := range xs {
		a.Add(x)
	}
	want := Summarize(xs)
	got := a.Summary()
	if a.n != len(xs) || got.N != want.N || got.Mean != want.Mean ||
		got.Min != want.Min || got.Max != want.Max {
		t.Errorf("accumulator summary = %+v, want %+v", got, want)
	}
	if math.Abs(got.Stddev-want.Stddev) > 1e-12*want.Stddev {
		t.Errorf("stddev = %g, want %g", got.Stddev, want.Stddev)
	}
}

func TestAccumulatorEmptyAndSingle(t *testing.T) {
	var a Accumulator
	if s := a.Summary(); s != (Summary{}) {
		t.Errorf("empty accumulator summary = %+v", s)
	}
	a.Add(7)
	if s := a.Summary(); s.N != 1 || s.Mean != 7 || s.Min != 7 || s.Max != 7 || s.Stddev != 0 {
		t.Errorf("single accumulator summary = %+v", s)
	}
}
