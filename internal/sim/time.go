// Package sim implements the deterministic discrete-event simulation kernel
// that the rest of the emulator substrate is built on.
//
// Simulated ("virtual") time is tracked per thread: every simulated thread
// owns a local clock that its operations advance. Each thread is an
// iter.Pull coroutine: the scheduler writes the thread's execution grant into
// it and resumes it with a direct coroutine switch. A conservative sequential
// scheduler always resumes the runnable thread with the smallest clock, so
// events on shared resources (caches, memory controllers, locks) are
// processed in global virtual-time order. An optional lookahead quantum lets
// threads run slightly ahead of the global minimum for non-synchronizing
// operations, trading a bounded amount of ordering precision on shared
// hardware state for a large reduction in context switches. Synchronization
// operations are always strictly ordered regardless of the quantum.
//
// Execution is fully deterministic: scheduling decisions depend only on
// thread clocks and spawn order, and all randomness used by workloads comes
// from explicitly seeded generators.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in (or span of) simulated time, measured in femtoseconds.
//
// Femtosecond resolution lets processor cycle periods (for example 476.19 ps
// at 2.1 GHz) be represented without cumulative drift while an int64 still
// covers about 2.5 hours of simulated time, far more than any experiment in
// this repository needs.
type Time int64

// Common simulated-time units.
const (
	Femtosecond Time = 1
	Picosecond       = 1000 * Femtosecond
	Nanosecond       = 1000 * Picosecond
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond

	// MaxTime is the largest representable simulated time. It is used as
	// the scheduling horizon when a thread has no peers to synchronize
	// with.
	MaxTime Time = math.MaxInt64
)

// Nanoseconds reports t as a floating-point number of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds reports t as a floating-point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Milliseconds reports t as a floating-point number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats t with an auto-selected unit, e.g. "176ns" or "10ms".
func (t Time) String() string {
	switch {
	case t == MaxTime:
		return "∞"
	case t < 0:
		return "-" + (-t).String()
	case t < Picosecond:
		return fmt.Sprintf("%dfs", int64(t))
	case t < Nanosecond:
		return fmt.Sprintf("%gps", float64(t)/float64(Picosecond))
	case t < Microsecond:
		return fmt.Sprintf("%gns", t.Nanoseconds())
	case t < Millisecond:
		return fmt.Sprintf("%gus", t.Microseconds())
	case t < Second:
		return fmt.Sprintf("%gms", t.Milliseconds())
	default:
		return fmt.Sprintf("%gs", t.Seconds())
	}
}

// FromNanos converts a floating-point nanosecond quantity to a Time.
func FromNanos(ns float64) Time { return Time(ns * float64(Nanosecond)) }

// FromSeconds converts a floating-point second quantity to a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// CyclesToTime converts a cycle count at the given core frequency (Hz) to a
// simulated duration.
func CyclesToTime(cycles int64, freqHz float64) Time {
	return Time(float64(cycles) * 1e15 / freqHz)
}

// TimeToCycles converts a simulated duration to a (fractional) cycle count
// at the given core frequency (Hz).
func TimeToCycles(t Time, freqHz float64) float64 {
	return float64(t) * freqHz / 1e15
}

func maxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

func minTime(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}
