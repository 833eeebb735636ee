package bench

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"github.com/quartz-emu/quartz/internal/mem"
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

// checkChainLen rejects a chain too long for the int32 slot indices the
// shuffle works in; it also keeps a packed visit order's slots at most 31
// bits wide.
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
// chain as its visit order, packed at ⌈log₂ Lines⌉ bits per slot, and reads
// it sequentially through an orderCursor, so the host prefetcher streams the
// next simulated address instead of the simulator missing on it once per
// load. A second cursor per chain runs warmAhead positions ahead and warms
// the simulated L3 set each later load will probe.
type MemLat struct {
	cfg     MemLatConfig
	bases   []uintptr
	batch   []uintptr
	cursors []orderCursor
	ahead   []orderCursor
}

// warmAhead is how many chase steps ahead of its load a chase kernel warms
// the simulated L3 set (simos.Thread.Warm): far enough that the host
// prefetch lands before the walk, near enough that the lines are still in
// the host caches when it comes.
const warmAhead = 4

// BuildMemLat allocates and links the chains inside p's address space.
func BuildMemLat(p *simos.Process, cfg MemLatConfig) (*MemLat, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := &MemLat{
		cfg:     cfg,
		bases:   make([]uintptr, cfg.Chains),
		batch:   make([]uintptr, cfg.Chains),
		cursors: make([]orderCursor, cfg.Chains),
		ahead:   make([]orderCursor, cfg.Chains),
	}
	for c := 0; c < cfg.Chains; c++ {
		base, err := p.MallocOnNode(uintptr(cfg.Lines)*mem.LineSize, cfg.Node)
		if err != nil {
			return nil, fmt.Errorf("bench: MemLat chain %d: %w", c, err)
		}
		b.bases[c] = base
		b.cursors[c] = permutationCycle(cfg.Lines, cfg.Seed+int64(c)*7919).cursor()
	}
	return b, nil
}

// Run chases the chains for the configured iterations from thread t, each
// from its slot 0, issuing Iters x Chains loads. The caller times the
// window: with one chain, its length over Iters is the measured memory
// access latency (the Intel MLC-style measurement the paper exploits in
// Fig. 12).
func (b *MemLat) Run(t *simos.Thread) {
	for c := range b.cursors {
		b.cursors[c].bit = b.cursors[c].start
		b.ahead[c] = b.cursors[c].skip(warmAhead)
	}
	if b.cfg.Chains == 1 {
		cur, ahead, base := b.cursors[0], b.ahead[0], b.bases[0]
		for i := 0; i < b.cfg.Iters; i++ {
			t.Warm(base + ahead.next()*mem.LineSize)
			t.Load(base + cur.next()*mem.LineSize)
		}
	} else {
		for i := 0; i < b.cfg.Iters; i++ {
			for c := range b.cursors {
				t.Warm(b.bases[c] + b.ahead[c].next()*mem.LineSize)
				b.batch[c] = b.bases[c] + b.cursors[c].next()*mem.LineSize
			}
			t.LoadGroup(b.batch)
		}
	}
}

// permCache memoizes permutationCycle results. Workload construction is
// fully seeded, so the same (n, seed) chain is rebuilt for every trial and
// every sweep point of an experiment; the visit orders are treated as
// read-only by every consumer, so trials (including parallel runner jobs)
// can share one copy. The key space is bounded by the experiment configs.
// Each key holds a sync.OnceValue, so callers that miss on one key at once
// build its order once and all get that one copy.
var permCache sync.Map // permKey -> func() *visitOrder

type permKey struct {
	n    int
	seed int64
}

// permutationCycle returns the visit order of a single cycle over n slots,
// drawn with a seeded splitmix-style shuffle: step k of its cursor is the
// slot a chase from slot 0 reaches after k steps, so it starts at 0 and
// names every slot exactly once before the chase repeats. The returned
// order is shared and must not be mutated.
func permutationCycle(n int, seed int64) *visitOrder {
	key := permKey{n, seed}
	v, ok := permCache.Load(key)
	if !ok {
		v, _ = permCache.LoadOrStore(key, sync.OnceValue(func() *visitOrder {
			return buildPermutationCycle(n, seed)
		}))
	}
	return v.(func() *visitOrder)()
}

// buildPermutationCycle is the uncached construction. It shuffles the
// identity in place in the packed form, so no wider copy of the order ever
// exists. The shuffled array is itself the cycle (position i is followed
// by i+1, the last by the first), so the visit order is the array read from
// the position that holds slot 0, wrapping at the end; the shuffle tracks
// that position instead of rotating the array.
func buildPermutationCycle(n int, seed int64) *visitOrder {
	width := uint64(bits.Len(uint(n - 1)))
	packed, mask := make([]byte, (uint64(n)*width+7)/8+8), uint64(1)<<width-1
	// Position i starts out holding slot i. Streaming the bits out 32 at a
	// time skips a read-modify-write per slot, whose load would wait on
	// the previous slot's overlapping store.
	var acc, held uint64
	at := 0
	for i := uint64(0); i < uint64(n); i++ {
		acc |= i << held
		if held += width; held >= 32 {
			binary.LittleEndian.PutUint32(packed[at:], uint32(acc))
			at, acc, held = at+4, acc>>32, held-32
		}
	}
	binary.LittleEndian.PutUint64(packed[at:], acc)
	zero := uint64(0) // the position of slot 0
	x := uint64(seed)*2862933555777941757 + 3037000493
	for i := uint64(n - 1); i > 0; i-- {
		x = x*6364136223846793005 + 1442695040888963407
		j := (x >> 11) % (i + 1)
		vi, vj := slotAt(packed, i*width, mask), slotAt(packed, j*width, mask)
		setSlot(packed, i*width, mask, vj)
		setSlot(packed, j*width, mask, vi)
		switch zero {
		case i:
			zero = j
		case j:
			zero = i
		}
	}
	return &visitOrder{packed: packed, width: width, mask: mask, start: zero * width, end: uint64(n) * width}
}

// visitOrder holds a cycle over n slots packed at width = bits.Len(n-1)
// bits per position, little-endian: position i's bits start at bit
// i*width of packed. A 1<<20-line chain takes 20 bits per slot instead of
// the 32 of an int32. width is at most 31 (checkChainLen caps n at
// MaxInt32), and a position starts at most 7 bits into its first byte, so
// one unaligned 64-bit load from that byte holds all of it; packed ends in
// 8 bytes of padding so that load never runs past it. The chase visits the
// positions in order from the one holding slot 0 (bit offset start) and
// wraps at bit offset end.
type visitOrder struct {
	packed      []byte
	width, mask uint64
	start, end  uint64
}

// slotAt decodes the slot whose bits start at bit of packed.
func slotAt(packed []byte, bit, mask uint64) uint64 {
	return binary.LittleEndian.Uint64(packed[bit>>3:]) >> (bit & 7) & mask
}

// setSlot stores slot v, which must fit in mask, at bit of packed.
func setSlot(packed []byte, bit, mask, v uint64) {
	word, shift := packed[bit>>3:], bit&7
	binary.LittleEndian.PutUint64(word, binary.LittleEndian.Uint64(word)&^(mask<<shift)|v<<shift)
}

// cursor returns a cursor at the start of the visit order.
func (o *visitOrder) cursor() orderCursor { return orderCursor{*o, o.start} }

// orderCursor reads a visitOrder sequentially. It keeps the bit offset of
// the next position and advances it by the slot width, so a step costs an
// add and a compare, not a multiply; at the end of the array it wraps to
// position 0, which continues the cycle.
type orderCursor struct {
	visitOrder
	bit uint64
}

// skip returns a copy of the cursor n steps further on.
func (c orderCursor) skip(n int) orderCursor {
	for range n {
		c.next()
	}
	return c
}

// next returns the slot at the cursor and steps past it.
func (c *orderCursor) next() uintptr {
	slot := slotAt(c.packed, c.bit, c.mask)
	if c.bit += c.width; c.bit == c.end {
		c.bit = 0
	}
	return uintptr(slot)
}
