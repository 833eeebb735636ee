package pagerank

import (
	"math"
	"testing"

	"github.com/quartz-emu/quartz/internal/machine"
	"github.com/quartz-emu/quartz/internal/sim"
	"github.com/quartz-emu/quartz/internal/simos"
)

func newProc(t *testing.T) *simos.Process {
	t.Helper()
	m, err := machine.NewPreset(machine.XeonE5_2450)
	if err != nil {
		t.Fatal(err)
	}
	p, err := simos.NewProcess(m, simos.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(GenerateConfig{}, nil); err == nil {
		t.Error("empty generate config accepted")
	}
}

func TestGenerateShape(t *testing.T) {
	g, err := Generate(GenerateConfig{Vertices: 1000, EdgesPerVertex: 8, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 1000 || len(g.Edges) != 8000 {
		t.Fatalf("graph shape = %d vertices / %d edges", g.N, len(g.Edges))
	}
	if g.Offsets[0] != 0 || int(g.Offsets[g.N]) != len(g.Edges) {
		t.Error("CSR offsets malformed")
	}
	for v := 0; v < g.N; v++ {
		if g.Offsets[v] > g.Offsets[v+1] {
			t.Fatalf("offsets not monotone at %d", v)
		}
	}
	// Scale-free skew: the top-32 hub vertices should receive well above
	// their uniform share of edges.
	var hubEdges int
	for _, e := range g.Edges {
		if e < 32 {
			hubEdges++
		}
	}
	if frac := float64(hubEdges) / float64(len(g.Edges)); frac < 0.05 {
		t.Errorf("hub fraction %.3f, want skew > uniform 0.032", frac)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(GenerateConfig{Vertices: 500, EdgesPerVertex: 4, Seed: 9}, nil)
	b, _ := Generate(GenerateConfig{Vertices: 500, EdgesPerVertex: 4, Seed: 9}, nil)
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("edge %d differs across same-seed generations", i)
		}
	}
}

func TestRunConvergesAndNormalizes(t *testing.T) {
	p := newProc(t)
	g, err := Generate(GenerateConfig{Vertices: 2000, EdgesPerVertex: 6, Seed: 3}, p.Malloc)
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	var ct sim.Time
	err = p.Run(func(th *simos.Thread) {
		start := th.Now()
		var rerr error
		res, rerr = Run(g, th, DefaultConfig(), p.Malloc)
		if rerr != nil {
			th.Failf("pagerank: %v", rerr)
		}
		ct = th.Now() - start
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 || res.Iterations >= 64 && res.Error > 1e-4 {
		t.Errorf("did not converge: %d iters, err %g", res.Iterations, res.Error)
	}
	var sum float64
	for _, r := range res.Ranks {
		if r < 0 {
			t.Fatal("negative rank")
		}
		sum += r
	}
	// With dangling mass approximated, the total stays near 1.
	if math.Abs(sum-1) > 0.2 {
		t.Errorf("rank sum = %g, want ~1", sum)
	}
	if ct <= 0 {
		t.Error("non-positive completion time")
	}
}

func TestHubsRankHigher(t *testing.T) {
	p := newProc(t)
	g, err := Generate(GenerateConfig{Vertices: 2000, EdgesPerVertex: 6, Seed: 3}, p.Malloc)
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	err = p.Run(func(th *simos.Thread) {
		res, _ = Run(g, th, DefaultConfig(), p.Malloc)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Hubs (low ids, which receive skewed in-edges) must out-rank the tail
	// on average.
	var hub, tail float64
	for v := 0; v < 64; v++ {
		hub += res.Ranks[v]
	}
	for v := g.N - 64; v < g.N; v++ {
		tail += res.Ranks[v]
	}
	if hub <= tail {
		t.Errorf("hub rank mass %g not above tail %g", hub, tail)
	}
}

func TestRunValidation(t *testing.T) {
	p := newProc(t)
	g, _ := Generate(GenerateConfig{Vertices: 10, EdgesPerVertex: 2, Seed: 1}, p.Malloc)
	err := p.Run(func(th *simos.Thread) {
		if _, err := Run(g, th, Config{}, p.Malloc); err == nil {
			t.Error("zero MaxIters accepted")
		}
		if _, err := Run(g, th, DefaultConfig(), nil); err == nil {
			t.Error("nil allocator accepted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRanksIndependentOfMemoryPlacement(t *testing.T) {
	// Simulated memory placement must never change numerical results —
	// only timing.
	run := func(node int) []float64 {
		p := newProc(t)
		alloc := func(size uintptr) (uintptr, error) { return p.MallocOnNode(size, node) }
		g, err := Generate(GenerateConfig{Vertices: 800, EdgesPerVertex: 4, Seed: 11}, alloc)
		if err != nil {
			t.Fatal(err)
		}
		var res Result
		if err := p.Run(func(th *simos.Thread) {
			cfg := DefaultConfig()
			cfg.MaxIters = 10
			res, _ = Run(g, th, cfg, alloc)
		}); err != nil {
			t.Fatal(err)
		}
		return res.Ranks
	}
	a, b := run(0), run(1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank %d differs across placements: %g vs %g", i, a[i], b[i])
		}
	}
}
