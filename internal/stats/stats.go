// Package stats provides the small statistical helpers the experiment
// harness uses: summaries over repeated trials and relative-error
// computation against reference measurements.
package stats

import "math"

// Summary describes a sample of repeated measurements.
type Summary struct {
	Mean float64
	Min  float64
	Max  float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{Min: math.Inf(1), Max: math.Inf(-1)}
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
