package workload

import (
	"strings"
	"testing"
)

// sweep builds the classic saturating sweep: throughput climbs, flattens at
// the knee, and p99 explodes past it.
func sweep() []SLOPoint {
	return []SLOPoint{
		{Clients: 4, OpsPerSec: 1000, P50: 500, P95: 800, P99: 1000},
		{Clients: 16, OpsPerSec: 3800, P50: 520, P95: 850, P99: 1100},
		{Clients: 64, OpsPerSec: 9000, P50: 600, P95: 1000, P99: 1500},
		{Clients: 256, OpsPerSec: 9800, P50: 2500, P95: 5000, P99: 9000},
		{Clients: 1024, OpsPerSec: 9900, P50: 11000, P95: 30000, P99: 60000},
	}
}

func TestDetectKnee(t *testing.T) {
	points := sweep()
	if got := DetectKnee(points); got != 2 {
		t.Errorf("DetectKnee = %d, want 2 (64 clients)", got)
	}
	if got := DetectKnee(points[:2]); got != -1 {
		t.Errorf("DetectKnee on 2 points = %d, want -1", got)
	}
	flat := []SLOPoint{{OpsPerSec: 5}, {OpsPerSec: 5}, {OpsPerSec: 5}}
	if got := DetectKnee(flat); got != -1 {
		t.Errorf("DetectKnee on flat sweep = %d, want -1", got)
	}
}

func TestSLOReport(t *testing.T) {
	r := NewSLOReport("traffic-sweep", "read-mostly", sweep())
	if r.KneeIdx != 2 {
		t.Errorf("KneeIdx = %d, want 2", r.KneeIdx)
	}
	// Baseline p99 1000; 4x limit 4000; first breach is 256 clients (9000).
	if r.BreachIdx != 3 {
		t.Errorf("BreachIdx = %d, want 3", r.BreachIdx)
	}
	out := r.Summary()
	for _, want := range []string{"read-mostly", "knee at 64 clients", "p99 1.50us", "first exceeded at 256 clients"} {
		if !strings.Contains(out, want) {
			t.Errorf("Summary() missing %q: %s", want, out)
		}
	}
}

func TestSLOReportNoKnee(t *testing.T) {
	r := NewSLOReport("s", "m", nil)
	if r.KneeIdx != -1 || r.BreachIdx != -1 {
		t.Errorf("empty report = %+v", r)
	}
	if !strings.Contains(r.Summary(), "no throughput knee") {
		t.Errorf("Summary() = %q", r.Summary())
	}
}
