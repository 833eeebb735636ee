// Package stats provides the small statistical helpers the experiment
// harness uses: summaries over repeated trials and relative-error
// computation against reference measurements.
package stats

import (
	"fmt"
	"math"
)

// Summary describes a sample of repeated measurements.
type Summary struct {
	N      int
	Mean   float64
	Min    float64
	Max    float64
	Stddev float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Stddev = math.Sqrt(ss / float64(len(xs)-1))
	}
	return s
}

// String formats the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("mean=%.4g min=%.4g max=%.4g sd=%.3g n=%d", s.Mean, s.Min, s.Max, s.Stddev, s.N)
}

// Accumulator is a streaming summary: samples are added one at a time,
// without retaining them. Mean, min and max match Summarize exactly for the
// same insertion order; the variance uses Welford updates and can differ
// from Summarize's two-pass result by floating-point rounding.
type Accumulator struct {
	n        int
	sum      float64
	min, max float64
	mean, m2 float64 // Welford running mean and sum of squared deviations
}

// Add folds one sample into the accumulator.
func (a *Accumulator) Add(x float64) {
	if a.n == 0 {
		a.min, a.max = math.Inf(1), math.Inf(-1)
	}
	a.n++
	a.sum += x
	if x < a.min {
		a.min = x
	}
	if x > a.max {
		a.max = x
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// Summary finalizes the accumulated statistics. An empty accumulator yields
// a zero Summary, as Summarize does for an empty sample.
func (a Accumulator) Summary() Summary {
	if a.n == 0 {
		return Summary{}
	}
	s := Summary{N: a.n, Mean: a.sum / float64(a.n), Min: a.min, Max: a.max}
	if a.n > 1 {
		s.Stddev = math.Sqrt(a.m2 / float64(a.n-1))
	}
	return s
}

// RelErr reports |got-want|/|want| (0 when want is 0 and got is 0; +Inf when
// only want is 0).
func RelErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// SignedErr reports (got-want)/|want|: negative when the measurement
// undershoots the reference.
func SignedErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (got - want) / math.Abs(want)
}
