package graph500

import (
	"testing"

	"github.com/quartz-emu/quartz/internal/apps/pagerank"
	"github.com/quartz-emu/quartz/internal/machine"
	"github.com/quartz-emu/quartz/internal/sim"
	"github.com/quartz-emu/quartz/internal/simos"
)

func newProc(t *testing.T) *simos.Process {
	t.Helper()
	m, err := machine.NewPreset(machine.XeonE5_2660v2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := simos.NewProcess(m, simos.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBFSVisitsReachableVertices(t *testing.T) {
	p := newProc(t)
	g, err := pagerank.Generate(pagerank.GenerateConfig{Vertices: 3000, EdgesPerVertex: 8, Seed: 5}, p.Malloc)
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	var ct sim.Time
	err = p.Run(func(th *simos.Thread) {
		start := th.Now()
		var rerr error
		res, rerr = BFS(g, th, 0, p.Malloc)
		if rerr != nil {
			th.Failf("bfs: %v", rerr)
		}
		ct = th.Now() - start
	})
	if err != nil {
		t.Fatal(err)
	}
	// Dense scale-free graphs are mostly one component when traversed via
	// in-edges from a hub.
	if res.Visited < g.N/4 {
		t.Errorf("visited %d of %d vertices; expected a large component from a hub root", res.Visited, g.N)
	}
	if res.EdgesTraversed == 0 || ct <= 0 || res.Depth == 0 {
		t.Errorf("degenerate result %+v in %v", res, ct)
	}
}

func TestBFSValidation(t *testing.T) {
	p := newProc(t)
	g, _ := pagerank.Generate(pagerank.GenerateConfig{Vertices: 10, EdgesPerVertex: 2, Seed: 1}, p.Malloc)
	err := p.Run(func(th *simos.Thread) {
		if _, err := BFS(g, th, -1, p.Malloc); err == nil {
			t.Error("negative root accepted")
		}
		if _, err := BFS(g, th, 99, p.Malloc); err == nil {
			t.Error("out-of-range root accepted")
		}
		if _, err := BFS(g, th, 0, nil); err == nil {
			t.Error("nil allocator accepted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBFSDeterministic(t *testing.T) {
	run := func() Result {
		p := newProc(t)
		g, err := pagerank.Generate(pagerank.GenerateConfig{Vertices: 1000, EdgesPerVertex: 4, Seed: 2}, p.Malloc)
		if err != nil {
			t.Fatal(err)
		}
		var res Result
		if err := p.Run(func(th *simos.Thread) {
			res, _ = BFS(g, th, 0, p.Malloc)
		}); err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("BFS nondeterministic: %+v vs %+v", a, b)
	}
}

func TestBFSSlowerOnRemoteMemory(t *testing.T) {
	// The BFS kernel is latency-bound: physically remote placement must
	// slow it down by roughly the latency ratio.
	run := func(node int) (res Result, ct sim.Time) {
		p := newProc(t)
		alloc := func(size uintptr) (uintptr, error) { return p.MallocOnNode(size, node) }
		g, err := pagerank.Generate(pagerank.GenerateConfig{Vertices: 2000, EdgesPerVertex: 6, Seed: 8}, alloc)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Run(func(th *simos.Thread) {
			start := th.Now()
			res, _ = BFS(g, th, 0, alloc)
			ct = th.Now() - start
		}); err != nil {
			t.Fatal(err)
		}
		return res, ct
	}
	local, localCT := run(0)
	remote, remoteCT := run(1)
	if remoteCT <= localCT {
		t.Errorf("remote BFS %v not slower than local %v", remoteCT, localCT)
	}
	if local.Visited != remote.Visited {
		t.Errorf("placement changed traversal: %d vs %d visited", local.Visited, remote.Visited)
	}
}
