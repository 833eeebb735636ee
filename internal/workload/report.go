package workload

import (
	"fmt"
	"strings"
)

// SLOPoint is one client-count sweep point of an SLO report.
type SLOPoint struct {
	Clients   int
	OpsPerSec float64
	// P50/P95/P99 are all-ops response-time quantiles in nanoseconds.
	P50, P95, P99 float64
}

// SLOReport is one (scenario, mix) series across a client-count sweep, with
// the throughput knee and the latency-SLO breach located.
type SLOReport struct {
	Scenario string
	Mix      string
	Points   []SLOPoint
	// KneeIdx indexes the throughput knee in Points (-1 when the sweep is
	// too short or never bends).
	KneeIdx int
	// BreachIdx indexes the first point whose P99 exceeds BreachFactor
	// times the first point's P99 (-1 when none does).
	BreachIdx int
}

// BreachFactor is the p99 growth (relative to the sweep's first point) that
// counts as blowing the latency SLO.
const BreachFactor = 4.0

// NewSLOReport assembles a report over points (which must be in ascending
// client-count order).
func NewSLOReport(scenario, mix string, points []SLOPoint) SLOReport {
	return SLOReport{
		Scenario:  scenario,
		Mix:       mix,
		Points:    points,
		KneeIdx:   DetectKnee(points),
		BreachIdx: detectBreach(points),
	}
}

// DetectKnee locates the throughput knee of an ascending client-count sweep:
// the point of diminishing returns where added clients stop buying
// throughput. It normalizes the curve to the unit square and returns the
// index maximizing the vertical distance above the diagonal (the simplified
// Kneedle criterion) — -1 when the sweep has under three points or the curve
// never gains. The computation is pure float arithmetic over the points, so
// it is deterministic for deterministic inputs.
func DetectKnee(points []SLOPoint) int {
	if len(points) < 3 {
		return -1
	}
	minTP, maxTP := points[0].OpsPerSec, points[0].OpsPerSec
	for _, p := range points {
		if p.OpsPerSec < minTP {
			minTP = p.OpsPerSec
		}
		if p.OpsPerSec > maxTP {
			maxTP = p.OpsPerSec
		}
	}
	if maxTP <= minTP {
		return -1
	}
	best, bestDist := -1, 0.0
	for i, p := range points {
		x := float64(i) / float64(len(points)-1)
		y := (p.OpsPerSec - minTP) / (maxTP - minTP)
		if d := y - x; d > bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// detectBreach finds the first point whose p99 exceeds BreachFactor times
// the first point's p99.
func detectBreach(points []SLOPoint) int {
	if len(points) == 0 || points[0].P99 <= 0 {
		return -1
	}
	limit := points[0].P99 * BreachFactor
	for i, p := range points {
		if p.P99 > limit {
			return i
		}
	}
	return -1
}

// Summary renders the report's one-line verdict, the form the experiment
// tables quote in their notes.
func (r SLOReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s: ", r.Scenario, r.Mix)
	if r.KneeIdx >= 0 {
		p := r.Points[r.KneeIdx]
		fmt.Fprintf(&b, "knee at %d clients (%.0f ops/s, p99 %s)", p.Clients, p.OpsPerSec, fmtLatNS(p.P99))
	} else {
		b.WriteString("no throughput knee in sweep")
	}
	if r.BreachIdx >= 0 {
		p := r.Points[r.BreachIdx]
		fmt.Fprintf(&b, "; p99 SLO (%.0fx baseline) first exceeded at %d clients", BreachFactor, p.Clients)
	}
	return b.String()
}

// fmtLatNS renders a nanosecond latency with an adaptive unit.
func fmtLatNS(ns float64) string {
	switch {
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2fus", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}
