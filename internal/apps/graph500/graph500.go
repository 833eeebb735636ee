// Package graph500 implements the Graph500 reference-style breadth-first
// search kernel on the simulated memory hierarchy. The paper's conclusion
// reports extended validation with the Graph500 reference implementation;
// this package provides that workload: BFS over a synthetic scale-free CSR
// graph with the visited-bitmap and frontier-queue access pattern whose
// random vertex probes are strongly latency-bound.
package graph500

import (
	"fmt"

	"github.com/quartz-emu/quartz/internal/apps/pagerank"
	"github.com/quartz-emu/quartz/internal/obs/vtprof"
	"github.com/quartz-emu/quartz/internal/simos"
)

// phaseBFS frames the BFS kernel in vtprof output.
var phaseBFS = vtprof.Intern("bfs")

// Result reports one BFS run.
type Result struct {
	// Visited is the number of vertices reached.
	Visited int
	// EdgesTraversed counts scanned edges.
	EdgesTraversed int64
	// Depth is the BFS tree height.
	Depth int
}

// BFS runs a breadth-first search from root over g's in-edge CSR (treated
// as undirected-ish adjacency, as the Graph500 kernel does with its
// symmetrized input).
func BFS(g *pagerank.Graph, t *simos.Thread, root int, alloc pagerank.Alloc) (Result, error) {
	if root < 0 || root >= g.N {
		return Result{}, fmt.Errorf("graph500: root %d outside [0,%d)", root, g.N)
	}
	if alloc == nil {
		return Result{}, fmt.Errorf("graph500: nil allocator")
	}
	simVisited, err := alloc(uintptr(g.N) / 8)
	if err != nil {
		return Result{}, fmt.Errorf("graph500: visited bitmap: %w", err)
	}
	simParent, err := alloc(uintptr(g.N) * 4)
	if err != nil {
		return Result{}, fmt.Errorf("graph500: parent array: %w", err)
	}

	visited := make([]bool, g.N)
	parent := make([]int32, g.N)
	for i := range parent {
		parent[i] = -1
	}
	frontier := []int32{int32(root)}
	visited[root] = true
	parent[root] = int32(root)
	t.PushPhase(phaseBFS)
	defer t.PopPhase()

	var res Result
	res.Visited = 1
	for len(frontier) > 0 {
		res.Depth++
		var next []int32
		for _, v := range frontier {
			lo, hi := int(g.Offsets[v]), int(g.Offsets[v+1])
			for e := lo; e < hi; e++ {
				if e%16 == 0 {
					t.Load(g.SimEdges() + uintptr(e)*4) // streaming adjacency line
				}
				u := g.Edges[e]
				res.EdgesTraversed++
				// Probe the visited bitmap: a random, latency-bound read.
				t.Load(simVisited + uintptr(u)/8)
				t.Compute(4)
				if !visited[u] {
					visited[u] = true
					parent[u] = v
					res.Visited++
					t.Store(simVisited + uintptr(u)/8)
					t.Store(simParent + uintptr(u)*4)
					next = append(next, u)
				}
			}
		}
		frontier = next
	}
	return res, nil
}
