package workload

import (
	"fmt"
	"testing"

	"github.com/quartz-emu/quartz/internal/machine"
	"github.com/quartz-emu/quartz/internal/sim"
	"github.com/quartz-emu/quartz/internal/simos"
)

// zeroTarget serves every op in zero simulated time — the adversarial case
// for the FIFO fast path, whose append guard must detect the tie and fall
// back to the heap without changing the served order.
type zeroTarget struct{ ops []Op }

func (z *zeroTarget) Read(t *simos.Thread, key uint64) bool {
	z.ops = append(z.ops, Op{Kind: OpRead, Key: key})
	return true
}

func (z *zeroTarget) Update(t *simos.Thread, key uint64, value uint64) error {
	z.ops = append(z.ops, Op{Kind: OpUpdate, Key: key})
	return nil
}

func (z *zeroTarget) Scan(t *simos.Thread, key uint64, limit int) int {
	z.ops = append(z.ops, Op{Kind: OpScan, Key: key})
	return limit
}

// runSched executes cfg under the given scheduler mode against a recording
// target and returns the result plus the exact served op sequence.
func runSched(t *testing.T, cfg ScenarioConfig, mode schedMode, zeroCost bool) (ScenarioResult, []Op) {
	t.Helper()
	cfg.sched = mode
	if !zeroCost {
		res, ops := runStub(t, cfg)
		return res, ops
	}
	m, err := machine.NewPreset(machine.XeonE5_2660v2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := simos.NewProcess(m, simos.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	target := &zeroTarget{}
	var res ScenarioResult
	var runErr error
	if err := p.Run(func(th *simos.Thread) {
		res, runErr = RunScenario(th, target, cfg)
	}); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	return res, target.ops
}

// TestSchedulerEquivalence pins the determinism contract of the optimized
// pickers: for every loop shape, the 4-ary heap, the open-loop calendar and
// the closed-loop FIFO ring must serve the exact op sequence — and produce
// the identical result — of the reference linear scan. The zero-cost case
// forces ops that complete in zero simulated time, the one schedule the
// FIFO's append guard must hand off to the heap.
func TestSchedulerEquivalence(t *testing.T) {
	shapes := []struct {
		name     string
		zeroCost bool
		mutate   func(*ScenarioConfig)
	}{
		{"closed-zero-think", false, func(c *ScenarioConfig) {}},
		{"open-loop", false, func(c *ScenarioConfig) { c.ArrivalPeriod = 2 * sim.Microsecond }},
		{"open-loop-overload", false, func(c *ScenarioConfig) {
			c.ArrivalPeriod = 100 // far faster than service: deep backlog
			c.Clients = 17        // prime, so stagger offsets collide and tie
		}},
		{"closed-zero-cost-ops", true, func(c *ScenarioConfig) {}},
	}
	for _, shape := range shapes {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			cfg := baseConfig(shape.name)
			cfg.Clients = 13 // not a pool multiple: uneven owned counts
			cfg.MeasureOps = 12
			shape.mutate(&cfg)
			refRes, refOps := runSched(t, cfg, schedLinear, shape.zeroCost)
			for mode, name := range map[schedMode]string{schedAuto: "auto", schedHeap: "heap"} {
				res, ops := runSched(t, cfg, mode, shape.zeroCost)
				if fmt.Sprint(ops) != fmt.Sprint(refOps) {
					t.Errorf("%s: served op sequence diverges from the linear reference", name)
				}
				if res.CT != refRes.CT || res.Ops != refRes.Ops || res.Counts != refRes.Counts {
					t.Errorf("%s: result %+v, want %+v", name, res, refRes)
				}
				if fmt.Sprint(res.Lat.All.Snapshot()) != fmt.Sprint(refRes.Lat.All.Snapshot()) {
					t.Errorf("%s: latency histogram diverges from the linear reference", name)
				}
			}
		})
	}
}

// TestFIFOFallbackServesEveryOp drives the zero-cost schedule directly
// through the auto picker and checks completeness: the heap fallback must
// pick up exactly where the ring left off, with every client reaching its
// quota exactly once.
func TestFIFOFallbackServesEveryOp(t *testing.T) {
	cfg := baseConfig("fallback")
	cfg.Clients = 9
	cfg.PoolThreads = 2
	cfg.MeasureOps = 7
	res, ops := runSched(t, cfg, schedAuto, true)
	want := int64(cfg.Clients * cfg.MeasureOps)
	if res.Ops != want {
		t.Errorf("measured %d ops, want %d", res.Ops, want)
	}
	if total := cfg.Clients * (cfg.WarmupOps + cfg.MeasureOps); len(ops) != total {
		t.Errorf("served %d ops, want %d", len(ops), total)
	}
}

// TestScenarioPoolSizeInvarianceLarge is the at-scale determinism gate: at
// 100k+ clients the op multiset and per-kind counts must be identical for
// every pool size, exactly as at toy scale. -short trims the client axis.
func TestScenarioPoolSizeInvarianceLarge(t *testing.T) {
	clients := 120_000
	if testing.Short() {
		clients = 8_000
	}
	cfg := baseConfig("pool-large")
	cfg.Clients = clients
	cfg.WarmupOps = 1
	cfg.MeasureOps = 2
	cfg.Keys = Uniform{Keys: 4096}
	var wantCounts [NumOpKinds]int64
	var wantOps []Op
	for i, pool := range []int{1, 7, 16} {
		cfg.PoolThreads = pool
		res, ops := runStub(t, cfg)
		if res.Ops != int64(clients*cfg.MeasureOps) {
			t.Fatalf("pool %d measured %d ops, want %d", pool, res.Ops, clients*cfg.MeasureOps)
		}
		canon := sortedOps(ops)
		if i == 0 {
			wantCounts, wantOps = res.Counts, canon
			continue
		}
		if res.Counts != wantCounts {
			t.Errorf("pool %d counts %v, want %v", pool, res.Counts, wantCounts)
		}
		if !opsEqual(canon, wantOps) {
			t.Errorf("pool %d generated a different op multiset", pool)
		}
	}
}

// opsEqual compares op slices without the fmt.Sprint detour (the large
// invariance test would otherwise spend its time formatting).
func opsEqual(a, b []Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
