package workload

import (
	"fmt"
	"sort"
	"testing"

	"github.com/quartz-emu/quartz/internal/machine"
	"github.com/quartz-emu/quartz/internal/obs"
	"github.com/quartz-emu/quartz/internal/simos"
)

// stubTarget is a Target that charges a fixed compute cost per op and
// records every operation it serves.
type stubTarget struct {
	cycles int64
	ops    []Op
}

func (s *stubTarget) Read(t *simos.Thread, key uint64) bool {
	t.Compute(s.cycles)
	s.ops = append(s.ops, Op{Kind: OpRead, Key: key})
	return true
}

func (s *stubTarget) Update(t *simos.Thread, key uint64, value uint64) error {
	t.Compute(s.cycles)
	s.ops = append(s.ops, Op{Kind: OpUpdate, Key: key})
	return nil
}

func (s *stubTarget) Scan(t *simos.Thread, key uint64, limit int) int {
	t.Compute(s.cycles * int64(limit))
	s.ops = append(s.ops, Op{Kind: OpScan, Key: key})
	return limit
}

// runStub executes cfg against a fresh stub target on a fresh simulated
// process and returns the result plus the served ops.
func runStub(t *testing.T, cfg ScenarioConfig) (ScenarioResult, []Op) {
	t.Helper()
	m, err := machine.NewPreset(machine.XeonE5_2660v2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := simos.NewProcess(m, simos.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	target := &stubTarget{cycles: 2000}
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

func baseConfig(name string) ScenarioConfig {
	return ScenarioConfig{
		Name:        name,
		Clients:     12,
		PoolThreads: 3,
		WarmupOps:   4,
		MeasureOps:  10,
		Keys:        Uniform{Keys: 64},
		Mix:         Mix{Name: "t", Read: 700, Update: 200, Scan: 100, ScanLen: 4},
		Seed:        2026,
	}
}

// sortedOps canonicalizes a served-op multiset for comparison across pool
// sizes (service order differs; the set of generated ops must not).
func sortedOps(ops []Op) []Op {
	out := append([]Op(nil), ops...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// TestScenarioDeterminism runs the same scenario twice and requires an
// identical result — the byte-identical-tables gate at engine level.
func TestScenarioDeterminism(t *testing.T) {
	cfg := baseConfig("det")
	a, opsA := runStub(t, cfg)
	b, opsB := runStub(t, cfg)
	if a.CT != b.CT || a.Ops != b.Ops || a.Counts != b.Counts || a.OpsPerSec != b.OpsPerSec {
		t.Errorf("reruns diverged: %+v vs %+v", a, b)
	}
	if fmt.Sprint(a.Lat.All.Snapshot()) != fmt.Sprint(b.Lat.All.Snapshot()) {
		t.Error("latency histograms diverged between reruns")
	}
	if fmt.Sprint(opsA) != fmt.Sprint(opsB) {
		t.Error("served op sequences diverged between reruns")
	}
}

// TestScenarioPoolSizeInvariance requires that changing the pool size never
// changes which ops the clients generate: per-client streams derive from
// (seed, client index) alone, so the served multiset — and the per-kind
// counts — are identical for 1, 3 and 12 pool threads.
func TestScenarioPoolSizeInvariance(t *testing.T) {
	cfg := baseConfig("pool")
	var wantOps []Op
	var wantCounts [NumOpKinds]int64
	for i, pool := range []int{1, 3, 12} {
		cfg.PoolThreads = pool
		res, ops := runStub(t, cfg)
		if res.Ops != int64(cfg.Clients*cfg.MeasureOps) {
			t.Fatalf("pool %d measured %d ops, want %d", pool, res.Ops, cfg.Clients*cfg.MeasureOps)
		}
		canon := sortedOps(ops)
		if i == 0 {
			wantOps, wantCounts = canon, res.Counts
			continue
		}
		if res.Counts != wantCounts {
			t.Errorf("pool %d counts %v, want %v", pool, res.Counts, wantCounts)
		}
		if fmt.Sprint(canon) != fmt.Sprint(wantOps) {
			t.Errorf("pool %d generated a different op multiset", pool)
		}
	}
}

// TestWarmupExclusion verifies warmup ops reach the target but never the
// histograms or the live metrics.
func TestWarmupExclusion(t *testing.T) {
	rec := obs.New(0)
	cfg := baseConfig("warm")
	cfg.Obs = rec
	res, ops := runStub(t, cfg)
	total := cfg.Clients * (cfg.WarmupOps + cfg.MeasureOps)
	measured := int64(cfg.Clients * cfg.MeasureOps)
	if len(ops) != total {
		t.Errorf("target served %d ops, want %d (warmup + measured)", len(ops), total)
	}
	if got := res.Lat.All.Snapshot().Count; got != measured {
		t.Errorf("histogram count = %d, want %d (measured only)", got, measured)
	}
	if res.Ops != measured {
		t.Errorf("res.Ops = %d, want %d", res.Ops, measured)
	}
	if got := rec.Registry().Counter("quartz.ops.count").Value(); got != measured {
		t.Errorf("quartz.ops.count = %d, want %d (warmup excluded)", got, measured)
	}
	var kindSum int64
	for k := 0; k < NumOpKinds; k++ {
		name := OpKind(k).String()
		c := rec.Registry().Counter("quartz.ops." + name + ".count").Value()
		h := rec.Registry().Histogram("quartz.ops." + name + ".latency_ns").Snapshot().Count
		if c != h {
			t.Errorf("%s: count %d != histogram count %d", name, c, h)
		}
		if c != res.Counts[k] {
			t.Errorf("%s: live count %d != result count %d", name, c, res.Counts[k])
		}
		kindSum += c
	}
	if kindSum != measured {
		t.Errorf("per-kind counts sum to %d, want %d", kindSum, measured)
	}
}

// TestTrafficGauges verifies the live quartz.ops.* counters and the
// quartz.traffic.* progress gauges a recorded scenario leaves behind. The
// scenario runs more than two flush periods of measured ops, so the
// mid-run flush path feeds the counters as well as the final flush.
func TestTrafficGauges(t *testing.T) {
	rec := obs.New(0)
	cfg := baseConfig("gauges")
	cfg.Obs = rec
	cfg.MeasureOps = 2*flushEvery/cfg.Clients + 100
	res, _ := runStub(t, cfg)
	if res.Ops <= 2*flushEvery {
		t.Fatalf("measured %d ops, want > %d", res.Ops, 2*flushEvery)
	}
	reg := rec.Registry()
	if got := reg.Counter("quartz.ops.count").Value(); got != res.Ops {
		t.Errorf("quartz.ops.count = %d, want %d", got, res.Ops)
	}
	for name, want := range map[string]float64{
		"quartz.traffic.clients":   float64(cfg.Clients),
		"quartz.traffic.done":      float64(res.Ops),
		"quartz.traffic.total_ops": float64(res.Ops),
	} {
		if got := reg.Gauge(name).Value(); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	for _, name := range []string{"quartz.traffic.ops_per_sec", "quartz.traffic.p99_ns"} {
		if got := reg.Gauge(name).Value(); got <= 0 {
			t.Errorf("%s = %v, want > 0", name, got)
		}
	}
}

// TestOpenLoopQueueing checks the open loop produces the saturation
// signature: with arrivals far faster than the pool can serve, p99 response
// time grows well beyond the per-op service time (backlog queueing), while a
// leisurely schedule keeps latency near service time.
func TestOpenLoopQueueing(t *testing.T) {
	cfg := baseConfig("open")
	cfg.Clients = 32
	cfg.PoolThreads = 2
	cfg.MeasureOps = 20
	cfg.ArrivalPeriod = 100 // 100 fs: absurdly fast arrivals, guaranteed backlog
	over, _ := runStub(t, cfg)
	_, _, p99Over := over.Quantiles()

	cfg2 := baseConfig("calm")
	cfg2.Clients = 4
	cfg2.PoolThreads = 4
	cfg2.MeasureOps = 20
	calm, _ := runStub(t, cfg2)
	_, _, p99Calm := calm.Quantiles()

	if p99Over < 4*p99Calm {
		t.Errorf("overloaded open-loop p99 %.0fns not >> closed-loop %.0fns", p99Over, p99Calm)
	}
}

func TestScenarioValidation(t *testing.T) {
	bad := []func(*ScenarioConfig){
		func(c *ScenarioConfig) { c.Clients = 0 },
		func(c *ScenarioConfig) { c.PoolThreads = 0 },
		func(c *ScenarioConfig) { c.MeasureOps = 0 },
		func(c *ScenarioConfig) { c.WarmupOps = -1 },
		func(c *ScenarioConfig) { c.Keys = nil },
		func(c *ScenarioConfig) { c.ArrivalPeriod = -1 },
		func(c *ScenarioConfig) { c.Mix.Read = 0 },
	}
	for i, mutate := range bad {
		cfg := baseConfig("bad")
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d validated but should not", i)
		}
	}
	if err := baseConfig("ok").Validate(); err != nil {
		t.Errorf("base config invalid: %v", err)
	}
}
