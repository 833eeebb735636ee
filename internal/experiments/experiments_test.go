package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// tiny keeps structural tests fast; accuracy itself is covered by the bench
// and core test suites, and by the full-scale quartzbench runs recorded in
// EXPERIMENTS.md.
var tiny = Scale{
	Sparse:           true,
	Trials:           1,
	Lines:            1 << 17,
	MemLatIters:      4_000,
	MTSections:       40,
	MultiLatLines:    6_000,
	StreamLines:      1 << 14,
	KVOps:            200,
	KVPreload:        400,
	PRVertices:       500,
	PREdgesPerVertex: 4,
	PRIters:          3,
	TrafficClients:   []int{4, 8, 16},
	TrafficPool:      2,
	TrafficOps:       6,
	TrafficWarmup:    2,
	TrafficPreload:   200,
	TrafficMixes:     []string{"read-mostly", "scan-blend"},
	TrafficLatsNS:    []float64{300},

	TrafficMegaClients: []int{32, 128},
	TrafficMegaOps:     2,
	TrafficMegaWarmup:  1,

	AsymProfiles: []string{"optane-dcpmm", "pcm"},
	AsymLines:    1 << 12,
	AsymWriters:  []int{1, 2, 4, 8},
	AsymBWLines:  512,
}

func TestRegistryComplete(t *testing.T) {
	// Every artifact promised in DESIGN.md's experiment index must be
	// runnable.
	want := []string{
		"table1", "table2", "fig8", "fig11", "fig12", "fig13", "fig14",
		"fig15", "fig16", "pagerank-validate", "overhead", "epoch-size",
		"model-ablation", "pcommit", "amortization", "graph500-validate", "ext-asym-bw",
		"traffic-sweep", "traffic-slo", "traffic-mega",
		"fig11-asym", "fig12-asym",
	}
	have := map[string]bool{}
	for _, id := range All() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("fig99", tiny); err == nil {
		t.Error("unknown experiment accepted")
	}
	if _, err := Jobs("fig99", tiny); err == nil {
		t.Error("unknown experiment accepted by Jobs")
	}
	if _, err := Describe("fig99"); err == nil {
		t.Error("unknown experiment accepted by Describe")
	}
	if Known("fig99") {
		t.Error("Known(fig99) = true")
	}
}

// TestJobsDecomposition checks the structural contract of every registered
// decomposition: matching set id, unique job names, an assembler, a
// description, and — for everything but the static table1 — at least one
// job so the runner has parallelism to exploit.
func TestJobsDecomposition(t *testing.T) {
	for _, id := range All() {
		if !Known(id) {
			t.Errorf("All lists %q but Known rejects it", id)
		}
		desc, err := Describe(id)
		if err != nil || desc == "" {
			t.Errorf("%s: missing description (%v)", id, err)
		}
		js, err := Jobs(id, tiny)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if js.ID != id {
			t.Errorf("%s: job set id = %q", id, js.ID)
		}
		if js.Assemble == nil {
			t.Errorf("%s: no assembler", id)
		}
		if id != "table1" && len(js.Jobs) == 0 {
			t.Errorf("%s: no jobs", id)
		}
		seen := map[string]bool{}
		for _, j := range js.Jobs {
			if j.Name == "" || seen[j.Name] {
				t.Errorf("%s: duplicate or empty job name %q", id, j.Name)
			}
			seen[j.Name] = true
			if j.Run == nil {
				t.Errorf("%s/%s: nil Run", id, j.Name)
			}
		}
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	tab := Table1()
	if len(tab.Rows) != 11 { // 3 events Sandy + 4 Ivy + 4 Haswell
		t.Errorf("Table 1 has %d rows, want 11", len(tab.Rows))
	}
	rendered := tab.Render()
	for _, mnemonic := range []string{
		"CYCLE_ACTIVITY:STALLS_L2_PENDING",
		"MEM_LOAD_UOPS_MISC_RETIRED:LLC_MISS",
		"MEM_LOAD_UOPS_L3_MISS_RETIRED:REMOTE_DRAM",
	} {
		if !strings.Contains(rendered, mnemonic) {
			t.Errorf("Table 1 render missing %q", mnemonic)
		}
	}
}

func TestTable2ShapeAndOrdering(t *testing.T) {
	tab, err := Run("table2", tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("Table 2 rows = %d, want 3 families", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		local, err1 := strconv.ParseFloat(row[2], 64)
		remote, err2 := strconv.ParseFloat(row[5], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("unparseable row %v", row)
		}
		if remote <= local {
			t.Errorf("%s: remote %.1f not above local %.1f", row[0], remote, local)
		}
	}
}

func TestFig8MonotoneThenSaturating(t *testing.T) {
	tab, err := Run("fig8", tiny)
	if err != nil {
		t.Fatal(err)
	}
	var bws []float64
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		bws = append(bws, v)
	}
	for i := 1; i < len(bws); i++ {
		if bws[i] < bws[i-1]*0.95 {
			t.Errorf("bandwidth decreased at register step %d: %.2f -> %.2f", i, bws[i-1], bws[i])
		}
	}
	// Low registers are in the linear region: the second point roughly
	// doubles the first.
	if ratio := bws[1] / bws[0]; ratio < 1.6 || ratio > 2.4 {
		t.Errorf("linear-region doubling ratio = %.2f, want ~2", ratio)
	}
	// Saturation: the last two points are close.
	n := len(bws)
	if diff := (bws[n-1] - bws[n-2]) / bws[n-2]; diff > 0.1 {
		t.Errorf("no saturation at the top of the register range (%.1f%% growth)", diff*100)
	}
}

func TestFig12TracksTargets(t *testing.T) {
	s := tiny
	tab, err := Run("fig12", s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3*len(fig12Targets) {
		t.Fatalf("Fig 12 rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		target, _ := strconv.ParseFloat(row[1], 64)
		measured, _ := strconv.ParseFloat(row[2], 64)
		if rel := (measured - target) / target; rel > 0.25 || rel < -0.25 {
			t.Errorf("%s target %.0f measured %.0f: way off even for tiny scale", row[0], target, measured)
		}
	}
}

// TestFig12AsymDivergence pins the asymmetric model's defining property:
// under the calibrated profiles, emulated read and store latencies diverge in
// the direction the device dictates — Optane stores floor at DRAM and stay
// well below its 305 ns reads (W/R < 1), while PCM's 680 ns stores dominate
// its 170 ns reads (W/R > 1) — and the measured store latency tracks the
// effective (DRAM-floored) target.
func TestFig12AsymDivergence(t *testing.T) {
	tab, err := Run("fig12-asym", tiny)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * 2; len(tab.Rows) != want { // families x profiles
		t.Fatalf("fig12-asym rows = %d, want %d", len(tab.Rows), want)
	}
	for _, row := range tab.Rows {
		family, profile := row[0], row[1]
		wTgt, _ := strconv.ParseFloat(row[5], 64)
		wMeas, _ := strconv.ParseFloat(row[6], 64)
		ratio, _ := strconv.ParseFloat(row[8], 64)
		if rel := (wMeas - wTgt) / wTgt; rel > 0.1 || rel < -0.1 {
			t.Errorf("%s/%s: store latency %.1f vs target %.1f (>10%% off)", family, profile, wMeas, wTgt)
		}
		switch profile {
		case "optane-dcpmm":
			if ratio >= 1 {
				t.Errorf("%s/optane-dcpmm: W/R = %.2f, want < 1 (reads slower than stores)", family, ratio)
			}
		case "pcm":
			if ratio <= 1 {
				t.Errorf("%s/pcm: W/R = %.2f, want > 1 (stores slower than reads)", family, ratio)
			}
		}
	}
}

// TestFig11AsymCollapse pins the write-bandwidth-collapse shape: under the
// Optane profile the aggregate write throughput must rise from one writer to
// the curve's peak region and then fall back, while the flat-bandwidth PCM
// profile must never collapse below its single-writer throughput.
func TestFig11AsymCollapse(t *testing.T) {
	tab, err := Run("fig11-asym", tiny)
	if err != nil {
		t.Fatal(err)
	}
	agg := map[string][]float64{}
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("unparseable row %v", row)
		}
		agg[row[0]] = append(agg[row[0]], v)
	}
	opt := agg["optane-dcpmm"]
	if len(opt) < 3 {
		t.Fatalf("optane-dcpmm has %d writer points", len(opt))
	}
	peak, last := opt[0], opt[len(opt)-1]
	for _, v := range opt {
		if v > peak {
			peak = v
		}
	}
	if peak <= opt[0]*1.2 {
		t.Errorf("optane-dcpmm: no rise to a peak (1 writer %.2f, peak %.2f)", opt[0], peak)
	}
	if last >= peak*0.98 {
		t.Errorf("optane-dcpmm: no collapse past the peak (peak %.2f, last %.2f)", peak, last)
	}
	for i, v := range agg["pcm"] {
		if v < agg["pcm"][0]*0.9 {
			t.Errorf("pcm: writer point %d collapsed (%.2f vs 1-writer %.2f)", i, v, agg["pcm"][0])
		}
	}
}

func TestOverheadTable(t *testing.T) {
	tab, err := Run("overhead", tiny)
	if err != nil {
		t.Fatal(err)
	}
	rendered := tab.Render()
	if !strings.Contains(rendered, "5500000000 cycles") {
		t.Errorf("overhead table missing init cycles: %s", rendered)
	}
	if !strings.Contains(rendered, "300000 cycles") {
		t.Errorf("overhead table missing registration cycles: %s", rendered)
	}
}

func TestPCommitAblationSpeedsUp(t *testing.T) {
	s := tiny
	s.KVOps = 60
	tab, err := Run("pcommit", s)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		speedup, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		fields, _ := strconv.Atoi(row[0])
		if fields >= 4 && speedup < 1.5 {
			t.Errorf("%s fields: pcommit speedup %.2f, want >1.5", row[0], speedup)
		}
	}
}

func TestRenderAligned(t *testing.T) {
	tab := Table{
		ID:     "x",
		Title:  "t",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"n"},
	}
	out := tab.Render()
	if !strings.Contains(out, "== x: t ==") || !strings.Contains(out, "note: n") {
		t.Errorf("render = %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 {
		t.Errorf("render has %d lines, want 6", len(lines))
	}
}

// TestAllExperimentsRunAtTinyScale executes every registered experiment at
// tiny scale: each must produce at least one row and no error. Accuracy at
// realistic sizes is covered by the bench/core suites and the full-scale
// quartzbench runs in EXPERIMENTS.md.
func TestAllExperimentsRunAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the complete experiment registry")
	}
	for _, id := range All() {
		id := id
		t.Run(id, func(t *testing.T) {
			tab, err := Run(id, tiny)
			if err != nil {
				t.Fatal(err)
			}
			if len(tab.Rows) == 0 {
				t.Error("no rows produced")
			}
			if tab.ID != id {
				t.Errorf("table id = %q, want %q", tab.ID, id)
			}
			if out := tab.Render(); len(out) == 0 {
				t.Error("empty render")
			}
		})
	}
}
