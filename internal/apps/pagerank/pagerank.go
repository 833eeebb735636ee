package pagerank

import (
	"fmt"
	"math"

	"github.com/quartz-emu/quartz/internal/obs/vtprof"
	"github.com/quartz-emu/quartz/internal/sim"
	"github.com/quartz-emu/quartz/internal/simos"
)

// phaseRun frames the whole power-iteration kernel in vtprof output.
var phaseRun = vtprof.Intern("pagerank")

// damping is the PageRank damping factor. It is a typed constant so that
// 1-damping is the float64 difference 0.15000000000000002, as it was when
// the factor was a run-time value; an untyped 1-0.85 folds to 0.15 and
// would move every rank.
const damping float64 = 0.85

// epsilon is the L1 convergence threshold.
const epsilon = 1e-7

// gatherWidth is the number of rank gathers issued in parallel per step:
// the memory-level parallelism an out-of-order core extracts from
// independent x[src] reads.
const gatherWidth = 8

// Config parameterizes a PageRank computation.
type Config struct {
	// MaxIters bounds the iteration count.
	MaxIters int
	// RankAlloc places the rank vectors; nil falls back to the graph
	// allocator passed to Run. Separating them is how the two-memory
	// example keeps hot vectors in DRAM while the large graph sits in NVM.
	RankAlloc Alloc
}

// DefaultConfig returns the standard §4.7 setup.
func DefaultConfig() Config {
	return Config{MaxIters: 64}
}

// Result reports one computation's outcome.
type Result struct {
	Iterations int
	Error      float64 // final L1 delta
	CT         sim.Time
	Ranks      []float64
}

// Run computes PageRank on g from thread t with the power-iteration scheme
// of the paper's reference implementation (Gleich et al.'s linear-system
// formulation). Each iteration streams the CSR edge array (prefetch-
// friendly) while gathering source ranks at random (latency-bound) — the
// mix that produces Fig. 16's non-linear latency sensitivity.
func Run(g *Graph, t *simos.Thread, cfg Config, alloc Alloc) (Result, error) {
	if cfg.MaxIters <= 0 {
		return Result{}, fmt.Errorf("pagerank: MaxIters %d, must be positive", cfg.MaxIters)
	}
	rankAlloc := cfg.RankAlloc
	if rankAlloc == nil {
		rankAlloc = alloc
	}
	if rankAlloc == nil {
		return Result{}, fmt.Errorf("pagerank: nil allocator")
	}
	n := g.N
	simX, err := rankAlloc(uintptr(n) * 8)
	if err != nil {
		return Result{}, fmt.Errorf("pagerank: rank vector: %w", err)
	}
	simY, err := rankAlloc(uintptr(n) * 8)
	if err != nil {
		return Result{}, fmt.Errorf("pagerank: next vector: %w", err)
	}

	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(n)
	}

	batch := make([]uintptr, 0, gatherWidth)
	srcs := make([]int32, 0, gatherWidth)
	t.PushPhase(phaseRun)
	defer t.PopPhase()
	start := t.Now()
	var res Result
	for iter := 0; iter < cfg.MaxIters; iter++ {
		// Dangling vertices (no out-links) distribute their rank uniformly
		// — the standard teleportation of the linear-system formulation.
		var dangling float64
		for v := 0; v < n; v++ {
			if g.OutDeg[v] == 0 {
				dangling += x[v]
			}
		}
		t.Compute(int64(n)) // dangling scan
		base := (1-damping)/float64(n) + damping*dangling/float64(n)
		for v := 0; v < n; v++ {
			s := 0.0
			lo, hi := int(g.Offsets[v]), int(g.Offsets[v+1])
			for e := lo; e < hi; {
				batch = batch[:0]
				srcs = srcs[:0]
				for ; e < hi && len(batch) < gatherWidth; e++ {
					if e%16 == 0 {
						g.loadEdgesLine(t, e) // streaming edge-array line
					}
					src := g.Edges[e]
					srcs = append(srcs, src)
					batch = append(batch, simX+uintptr(src)*8)
				}
				t.LoadGroup(batch) // random rank gathers, MLP-overlapped
				t.Compute(int64(14 * len(batch)))
				for _, src := range srcs {
					s += x[src] / float64(g.OutDeg[src])
				}
			}
			y[v] = base + damping*s
			if v%8 == 0 {
				t.Store(simY + uintptr(v)*8) // streaming result line
			}
		}
		// Convergence: L1 delta over both vectors (streaming reads, one
		// simulated load per 16 vertices — a stride-128 run).
		var delta float64
		for v := 0; v < n; v++ {
			delta += math.Abs(y[v] - x[v])
		}
		t.LoadRun(simY, 128, (n+15)/16)
		t.Compute(int64(4 * n))

		x, y = y, x
		simX, simY = simY, simX
		res.Iterations = iter + 1
		res.Error = delta
		if delta < epsilon {
			break
		}
	}
	res.CT = t.Now() - start
	res.Ranks = x
	return res, nil
}
