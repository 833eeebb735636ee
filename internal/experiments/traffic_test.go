package experiments

import (
	"strings"
	"testing"
)

// TestTrafficSweepStructure checks the sweep table's shape: one row per
// (mix, latency, clients) cell, a knee per series, and sane quantile
// ordering at every point.
func TestTrafficSweepStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real traffic scenarios")
	}
	tab, err := Run("traffic-sweep", tiny)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(tiny.TrafficMixes) * len(tiny.TrafficLatsNS) * len(tiny.TrafficClients)
	if len(tab.Rows) != wantRows {
		t.Errorf("traffic-sweep has %d rows, want %d", len(tab.Rows), wantRows)
	}
	rendered := tab.Render()
	for _, mixName := range tiny.TrafficMixes {
		if !strings.Contains(rendered, mixName) {
			t.Errorf("render missing mix %q", mixName)
		}
	}
	if !strings.Contains(rendered, "knee") {
		t.Errorf("no knee reported in notes:\n%s", rendered)
	}
}

// TestTrafficSweepDeterminism reruns the decomposition and requires
// byte-identical tables — the engine-to-assembler path has no hidden state.
func TestTrafficSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real traffic scenarios")
	}
	a, err := Run("traffic-sweep", tiny)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("traffic-sweep", tiny)
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Errorf("traffic-sweep reruns diverge:\n--- a ---\n%s\n--- b ---\n%s", a.Render(), b.Render())
	}
}

// TestTrafficSLOStructure checks the per-kind breakdown: one row per mix,
// with scan counts only in scan-bearing mixes.
func TestTrafficSLOStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real traffic scenarios")
	}
	tab, err := Run("traffic-slo", tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(tiny.TrafficMixes) {
		t.Errorf("traffic-slo has %d rows, want %d", len(tab.Rows), len(tiny.TrafficMixes))
	}
	for _, row := range tab.Rows {
		scans := row[4]
		switch row[0] {
		case "read-mostly", "write-heavy":
			if scans != "0" {
				t.Errorf("%s: scans = %s, want 0", row[0], scans)
			}
		case "scan-blend":
			if scans == "0" {
				t.Errorf("scan-blend: no scans measured")
			}
		}
	}
}

func TestTrafficUnknownMix(t *testing.T) {
	if _, err := trafficRun(tiny, "nope", 300, 4, 1, nil, nil); err == nil {
		t.Error("unknown mix accepted")
	}
}

// TestTrafficLatencyDegradesThroughput: raising emulated NVM latency must
// reduce serving throughput for the same scenario — the core Quartz claim
// carried into the serving characterization. The key space must spill the
// scaled L3 (see trafficValueBytes) or there are no NVM-attributable stalls
// to slow down, so this test sizes it up from tiny.
func TestTrafficLatencyDegradesThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real traffic scenarios")
	}
	s := tiny
	s.TrafficPreload = 32_000
	s.TrafficOps = 20
	s.TrafficWarmup = 4
	fast, err := trafficRun(s, "read-mostly", 200, 8, 42, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := trafficRun(s, "read-mostly", 2000, 8, 42, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if slow.OpsPerSec >= fast.OpsPerSec {
		t.Errorf("2000ns NVM throughput %.0f not below 200ns %.0f", slow.OpsPerSec, fast.OpsPerSec)
	}
}
