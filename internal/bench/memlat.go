package bench

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"github.com/quartz-emu/quartz/internal/sim"
	"github.com/quartz-emu/quartz/internal/simos"
)

// MemLatConfig parameterizes the MemLat pointer-chasing benchmark (§4.4).
type MemLatConfig struct {
	// Lines is the number of cache-line-sized elements per chain. Choose
	// it much larger than the last-level cache so every access misses.
	Lines int
	// Chains is the number of independent chains chased concurrently —
	// the configurable degree of memory access parallelism.
	Chains int
	// Iters is the number of chase iterations; each iteration reads the
	// current element of every chain.
	Iters int
	// Node is the NUMA node the chains are allocated on.
	Node int
	// Seed makes the permutation deterministic.
	Seed int64
}

// Validate reports configuration errors.
func (c MemLatConfig) Validate() error {
	if c.Lines <= 1 || c.Chains <= 0 || c.Iters <= 0 {
		return fmt.Errorf("bench: MemLat needs lines >= 2 and positive chains/iters (got %d/%d/%d)", c.Lines, c.Chains, c.Iters)
	}
	return checkChainLen("MemLatConfig.Lines", c.Lines)
}

// checkChainLen rejects a chain too long for the int32 slot indices a
// visit order holds.
func checkChainLen(field string, n int) error {
	if n > math.MaxInt32 {
		return fmt.Errorf("bench: %s = %d exceeds the chain limit of %d lines", field, n, math.MaxInt32)
	}
	return nil
}

// MemLat is a built instance of the benchmark: Chains independent pointer
// cycles, each a random single cycle over Lines cache lines. In the
// simulated program each element holds the address of the next, so a chain
// is strictly latency-bound; different chains are independent, so a group
// of them exercises memory-level parallelism. The host side keeps each
// chain as its visit order and reads it sequentially, so the host
// prefetcher streams the next simulated address instead of the simulator
// missing on it once per load.
type MemLat struct {
	cfg    MemLatConfig
	orders [][]int32
	bases  []uintptr
	batch  []uintptr
}

// MemLatResult is one run's measurement.
type MemLatResult struct {
	// CT is the completion time of the chase loop.
	CT sim.Time
	// PerIteration is CT divided by iterations: with one chain this is the
	// measured memory access latency (the Intel MLC-style measurement the
	// paper exploits in Fig. 12).
	PerIteration sim.Time
	// Accesses is the total number of loads issued.
	Accesses int64
}

// BuildMemLat allocates and links the chains inside p's address space.
func BuildMemLat(p *simos.Process, cfg MemLatConfig) (*MemLat, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := &MemLat{
		cfg:    cfg,
		orders: make([][]int32, cfg.Chains),
		bases:  make([]uintptr, cfg.Chains),
		batch:  make([]uintptr, cfg.Chains),
	}
	for c := 0; c < cfg.Chains; c++ {
		base, err := p.MallocOnNode(uintptr(cfg.Lines)*64, cfg.Node)
		if err != nil {
			return nil, fmt.Errorf("bench: MemLat chain %d: %w", c, err)
		}
		b.bases[c] = base
		b.orders[c] = permutationCycle(cfg.Lines, cfg.Seed+int64(c)*7919)
	}
	return b, nil
}

// Run chases the chains for the configured iterations from thread t, each
// from its slot 0.
func (b *MemLat) Run(t *simos.Thread) MemLatResult {
	start := t.Now()
	n := b.cfg.Lines
	if b.cfg.Chains == 1 {
		order, base := b.orders[0], b.bases[0]
		k := 0
		for i := 0; i < b.cfg.Iters; i++ {
			t.Load(base + uintptr(order[k])*64)
			if k++; k == n {
				k = 0
			}
		}
	} else {
		k := 0
		for i := 0; i < b.cfg.Iters; i++ {
			for c, order := range b.orders {
				b.batch[c] = b.bases[c] + uintptr(order[k])*64
			}
			t.LoadGroup(b.batch)
			if k++; k == n {
				k = 0
			}
		}
	}
	ct := t.Now() - start
	return MemLatResult{
		CT:           ct,
		PerIteration: ct / sim.Time(b.cfg.Iters),
		Accesses:     int64(b.cfg.Iters) * int64(b.cfg.Chains),
	}
}

// permCache memoizes permutationCycle results. Workload construction is
// fully seeded, so the same (n, seed) chain is rebuilt for every trial and
// every sweep point of an experiment; the visit orders are treated as
// read-only by every consumer, so trials (including parallel runner jobs)
// can share one copy. The key space is bounded by the experiment configs.
var permCache sync.Map // permKey -> []int32

type permKey struct {
	n    int
	seed int64
}

// permutationCycle returns the visit order of a single cycle over n slots,
// drawn with a seeded splitmix-style shuffle: order[k] is the slot a chase
// from slot 0 reaches after k steps, so it starts at 0 and names every slot
// exactly once before the chase repeats. The returned slice is shared and
// must not be mutated.
func permutationCycle(n int, seed int64) []int32 {
	key := permKey{n, seed}
	if v, ok := permCache.Load(key); ok {
		return v.([]int32)
	}
	order := buildPermutationCycle(n, seed)
	permCache.Store(key, order)
	return order
}

// buildPermutationCycle is the uncached construction. The shuffled perm is
// itself the cycle (perm[i] is followed by perm[i+1], the last by the
// first); rotating it to start at slot 0 gives the visit order.
func buildPermutationCycle(n int, seed int64) []int32 {
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	x := uint64(seed)*2862933555777941757 + 3037000493
	for i := n - 1; i > 0; i-- {
		x = x*6364136223846793005 + 1442695040888963407
		j := int((x >> 11) % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	p := slices.Index(perm, 0)
	slices.Reverse(perm[:p])
	slices.Reverse(perm[p:])
	slices.Reverse(perm)
	return perm
}
