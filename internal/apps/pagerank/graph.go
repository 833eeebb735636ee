// Package pagerank implements the parallel-capable PageRank application of
// the paper's §4.7 case study on the simulated memory hierarchy, together
// with the seeded scale-free graph generator that stands in for the paper's
// 4.8M-vertex Yahoo web graph (scaled down; the access pattern — streaming
// edge arrays plus random vertex gathers — is what matters for latency and
// bandwidth sensitivity).
package pagerank

import (
	"fmt"

	"github.com/quartz-emu/quartz/internal/simos"
)

// Graph is a CSR (compressed sparse row) graph over simulated memory: for
// each destination vertex, the packed list of its in-neighbours. Host-side
// slices mirror the contents; the sim* fields anchor the simulated
// footprint so traversal costs real loads.
type Graph struct {
	N       int
	Offsets []int32 // len N+1
	Edges   []int32 // in-neighbour ids, len M
	OutDeg  []int32 // out-degree per vertex

	simOffsets uintptr
	simEdges   uintptr
	simOutDeg  uintptr
}

// Alloc places graph arrays in simulated memory (malloc or pmalloc).
type Alloc func(size uintptr) (uintptr, error)

// GenerateConfig parameterizes the synthetic scale-free generator.
type GenerateConfig struct {
	// Vertices is N.
	Vertices int
	// EdgesPerVertex is the average in-degree.
	EdgesPerVertex int
	// Seed makes generation deterministic.
	Seed uint64
}

// Validate reports configuration errors.
func (c GenerateConfig) Validate() error {
	if c.Vertices <= 1 || c.EdgesPerVertex <= 0 {
		return fmt.Errorf("pagerank: bad GenerateConfig %+v", c)
	}
	return nil
}

// Generate builds a scale-free-ish directed graph: edge sources are drawn
// with preferential skew (low-id vertices act as hubs), giving the heavy
// tail of web graphs.
func Generate(cfg GenerateConfig, alloc Alloc) (*Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Vertices
	m := n * cfg.EdgesPerVertex
	g := &Graph{
		N:       n,
		Offsets: make([]int32, n+1),
		Edges:   make([]int32, 0, m),
		OutDeg:  make([]int32, n),
	}
	x := cfg.Seed*2862933555777941757 + 3037000493
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 11
	}
	// Each vertex v receives EdgesPerVertex in-edges; sources are skewed
	// toward hubs by squaring a uniform draw.
	for v := 0; v < n; v++ {
		g.Offsets[v] = int32(len(g.Edges))
		for e := 0; e < cfg.EdgesPerVertex; e++ {
			u := next() % uint64(n)
			u = u * u / uint64(n) // quadratic skew toward low ids
			if int(u) == v {
				u = (u + 1) % uint64(n)
			}
			g.Edges = append(g.Edges, int32(u))
			g.OutDeg[u]++
		}
	}
	g.Offsets[n] = int32(len(g.Edges))
	if alloc != nil {
		var err error
		if g.simOffsets, err = alloc(uintptr(len(g.Offsets)) * 4); err != nil {
			return nil, fmt.Errorf("pagerank: offsets: %w", err)
		}
		if g.simEdges, err = alloc(uintptr(len(g.Edges)) * 4); err != nil {
			return nil, fmt.Errorf("pagerank: edges: %w", err)
		}
		if g.simOutDeg, err = alloc(uintptr(len(g.OutDeg)) * 4); err != nil {
			return nil, fmt.Errorf("pagerank: outdeg: %w", err)
		}
	}
	return g, nil
}

// SimEdges reports the simulated base address of the edge array.
func (g *Graph) SimEdges() uintptr { return g.simEdges }

// edgeAddr is the simulated address of edge slot i (4-byte entries).
func (g *Graph) edgeAddr(i int) uintptr { return g.simEdges + uintptr(i)*4 }

// loadEdgesLine charges the streaming load covering edge slot i's cache
// line (16 int32 entries per 64-byte line).
func (g *Graph) loadEdgesLine(t *simos.Thread, i int) {
	t.Load(g.edgeAddr(i))
}
