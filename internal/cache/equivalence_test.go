package cache

import (
	"slices"
	"testing"

	"github.com/quartz-emu/quartz/internal/sim"
)

// refCache is the pre-optimization reference model: an array of per-line
// records walked linearly, with no MRU hint, no tag+1 encoding and no
// last-hit fast path. The optimized Cache must be observably
// indistinguishable from it — same hit/miss outcomes, waits, victims and
// statistics on any operation sequence — which is the determinism gate for
// the hot-path layout work. last is the tag+1 of the most recently hit or
// filled line (0 = none), the line TouchLast re-hits.
type refCache struct {
	cfg     Config
	lines   []refLine
	numSets int
	useClk  uint64
	last    uintptr
	stats   Stats
}

type refLine struct {
	valid   bool
	tag     uintptr
	dirty   bool
	lastUse uint64
	arrival sim.Time
}

func newRefCache(cfg Config) *refCache {
	lines := cfg.SizeBytes / cfg.LineSize
	return &refCache{cfg: cfg, lines: make([]refLine, lines), numSets: lines / cfg.Ways}
}

func (c *refCache) set(addr uintptr) []refLine {
	tag := addr / uintptr(c.cfg.LineSize)
	base := int(tag%uintptr(c.numSets)) * c.cfg.Ways
	return c.lines[base : base+c.cfg.Ways]
}

func (c *refCache) Lookup(addr uintptr, now sim.Time, markDirty bool) (bool, sim.Time) {
	tag := addr / uintptr(c.cfg.LineSize)
	for i := range c.set(addr) {
		ln := &c.set(addr)[i]
		if ln.valid && ln.tag == tag {
			c.useClk++
			ln.lastUse = c.useClk
			if markDirty {
				ln.dirty = true
			}
			c.last = tag + 1
			c.stats.Hits++
			if ln.arrival > now {
				return true, ln.arrival - now
			}
			return true, 0
		}
	}
	c.stats.Misses++
	return false, 0
}

func (c *refCache) Insert(addr uintptr, dirty bool, arrival sim.Time) (Eviction, bool) {
	tag := addr / uintptr(c.cfg.LineSize)
	set := c.set(addr)
	victim := -1
	for i := range set {
		ln := &set[i]
		if ln.valid && ln.tag == tag {
			c.useClk++
			ln.lastUse = c.useClk
			ln.dirty = ln.dirty || dirty
			if arrival < ln.arrival {
				ln.arrival = arrival
			}
			c.last = tag + 1
			return Eviction{}, false
		}
		if victim == -1 && !ln.valid {
			victim = i
		}
	}
	if victim == -1 {
		victim = 0
		for i := 1; i < len(set); i++ {
			if set[i].lastUse < set[victim].lastUse {
				victim = i
			}
		}
	}
	var ev Eviction
	var evicted bool
	if set[victim].valid {
		c.stats.Evictions++
		if set[victim].dirty {
			c.stats.DirtyEvictions++
		}
		ev = Eviction{Addr: set[victim].tag * uintptr(c.cfg.LineSize), Dirty: set[victim].dirty}
		evicted = true
	}
	c.useClk++
	set[victim] = refLine{valid: true, tag: tag, dirty: dirty, lastUse: c.useClk, arrival: arrival}
	c.last = tag + 1
	return ev, evicted
}

// TouchLast is a Lookup of the most recently hit or filled line, and a no-op
// for any other address.
func (c *refCache) TouchLast(addr uintptr, now sim.Time, markDirty bool) (sim.Time, bool) {
	if c.last == 0 || c.last != addr/uintptr(c.cfg.LineSize)+1 {
		return 0, false
	}
	_, wait := c.Lookup(addr, now, markDirty)
	return wait, true
}

func (c *refCache) Contains(addr uintptr) bool {
	tag := addr / uintptr(c.cfg.LineSize)
	for _, ln := range c.set(addr) {
		if ln.valid && ln.tag == tag {
			return true
		}
	}
	return false
}

func (c *refCache) Flush(addr uintptr) (present, dirty bool) {
	tag := addr / uintptr(c.cfg.LineSize)
	for i := range c.set(addr) {
		ln := &c.set(addr)[i]
		if ln.valid && ln.tag == tag {
			c.stats.Flushes++
			present, dirty = true, ln.dirty
			*ln = refLine{}
			if c.last == tag+1 {
				c.last = 0
			}
			return present, dirty
		}
	}
	return false, false
}

// TestOptimizedMatchesReferenceTrace drives the optimized cache and the
// reference model with identical pseudo-random operation traces (the mix a
// core generates: mostly lookups with a known-absent insert on each miss,
// occasional store hits, prefetch-style inserts with future arrivals,
// presence checks and flushes) and requires every per-op result and the
// final statistics to agree exactly. The configs span the presets'
// associativities and the widest one the recency lists address; the
// flush-heavy trace runs long over a few sets, so lists with holes, flushes
// of the head and the tail, and refills after a flush all occur many times.
func TestOptimizedMatchesReferenceTrace(t *testing.T) {
	for _, tc := range []struct {
		cfg      Config
		ops      int
		flushPct uint64
	}{
		{smallConfig(), 50_000, 10},
		{Config{Name: "np2-sets", SizeBytes: 4096 * 3 / 2, Ways: 4, LineSize: 64, LookupLat: sim.Nanosecond}, 50_000, 10},
		{Config{Name: "np2-line", SizeBytes: 48 * 96, Ways: 4, LineSize: 48, LookupLat: sim.Nanosecond}, 50_000, 10},
		{Config{Name: "8-way", SizeBytes: 64 * 8 * 16, Ways: 8, LineSize: 64, LookupLat: sim.Nanosecond}, 50_000, 10},
		{Config{Name: "16-way", SizeBytes: 64 * 16 * 8, Ways: 16, LineSize: 64, LookupLat: sim.Nanosecond}, 50_000, 10},
		{Config{Name: "20-way", SizeBytes: 64 * 20 * 12, Ways: 20, LineSize: 64, LookupLat: sim.Nanosecond}, 50_000, 10},
		{Config{Name: "256-way", SizeBytes: 64 * 256 * 2, Ways: 256, LineSize: 64, LookupLat: sim.Nanosecond}, 50_000, 10},
		{Config{Name: "flush-heavy-16-way", SizeBytes: 64 * 16 * 4, Ways: 16, LineSize: 64, LookupLat: sim.Nanosecond}, 400_000, 35},
	} {
		cfg := tc.cfg
		t.Run(cfg.Name, func(t *testing.T) {
			opt := mustCache(t, cfg)
			ref := newRefCache(cfg)
			x := uint64(0x9e3779b97f4a7c15)
			rnd := func(n uint64) uint64 {
				x = x*6364136223846793005 + 1442695040888963407
				return (x >> 33) % n
			}
			// Half-line addresses over twice the capacity, so sets conflict
			// and evict heavily and offsets within a line vary.
			pool := 4 * uint64(cfg.SizeBytes/cfg.LineSize)
			for op := 0; op < tc.ops; op++ {
				addr := uintptr(rnd(pool)) * uintptr(cfg.LineSize) / 2
				now := sim.Time(rnd(1000)) * sim.Nanosecond
				switch r := rnd(100); {
				case r < tc.flushPct:
					p1, d1 := opt.Flush(addr)
					p2, d2 := ref.Flush(addr)
					if p1 != p2 || d1 != d2 {
						t.Fatalf("op %d: Flush(%#x) = (%v,%v), ref (%v,%v)", op, addr, p1, d1, p2, d2)
					}
				case r < tc.flushPct+10: // prefetch-style insert with future arrival
					e1, v1 := opt.Insert(addr, false, now+100*sim.Nanosecond)
					e2, v2 := ref.Insert(addr, false, now+100*sim.Nanosecond)
					if e1 != e2 || v1 != v2 {
						t.Fatalf("op %d: Insert(%#x) = (%+v,%v), ref (%+v,%v)", op, addr, e1, v1, e2, v2)
					}
				case r < tc.flushPct+15:
					if got, want := opt.Contains(addr), ref.Contains(addr); got != want {
						t.Fatalf("op %d: Contains(%#x) = %v, ref %v", op, addr, got, want)
					}
				default: // demand access, known-absent insert on miss
					markDirty := rnd(4) == 0
					h1, w1 := opt.Lookup(addr, now, markDirty)
					h2, w2 := ref.Lookup(addr, now, markDirty)
					if h1 != h2 || w1 != w2 {
						t.Fatalf("op %d: Lookup(%#x) = (%v,%v), ref (%v,%v)", op, addr, h1, w1, h2, w2)
					}
					if !h1 {
						e1, v1 := opt.InsertAbsent(addr, markDirty, now)
						e2, v2 := ref.Insert(addr, markDirty, now)
						if e1 != e2 || v1 != v2 {
							t.Fatalf("op %d: fill InsertAbsent(%#x) = (%+v,%v), ref Insert (%+v,%v)", op, addr, e1, v1, e2, v2)
						}
					}
				}
			}
			if opt.Stats() != ref.stats {
				t.Errorf("final stats diverged: opt %+v, ref %+v", opt.Stats(), ref.stats)
			}
		})
	}
}

// TestTouchLastEquivalentToLookup drives two optimized caches with the same
// trace; one takes the TouchLast fast path whenever it applies (falling back
// to Lookup as the CPU layer does), the other always walks. Outcomes and
// statistics must be identical — TouchLast is bookkeeping-equivalent to a
// Lookup hit and side-effect-free on failure.
func TestTouchLastEquivalentToLookup(t *testing.T) {
	cfg := smallConfig()
	fast := mustCache(t, cfg)
	walk := mustCache(t, cfg)
	x := uint64(42)
	rnd := func(n uint64) uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return (x >> 33) % n
	}
	for op := 0; op < 50_000; op++ {
		// Heavy same-line repetition so TouchLast actually exercises.
		addr := uintptr(rnd(32)) * 8
		if rnd(8) == 0 {
			addr += uintptr(rnd(64)) * uintptr(cfg.LineSize)
		}
		now := sim.Time(op) * sim.Nanosecond
		markDirty := rnd(4) == 0

		hw, ww := walk.Lookup(addr, now, markDirty)
		var hf bool
		var wf sim.Time
		if wait, ok := fast.TouchLast(addr, now, markDirty); ok {
			hf, wf = true, wait
		} else {
			hf, wf = fast.Lookup(addr, now, markDirty)
		}
		if hf != hw || wf != ww {
			t.Fatalf("op %d: fast (%v,%v) vs walk (%v,%v) at %#x", op, hf, wf, hw, ww, addr)
		}
		if !hw {
			fast.Insert(addr, markDirty, now)
			walk.Insert(addr, markDirty, now)
		}
	}
	if fast.Stats() != walk.Stats() {
		t.Errorf("stats diverged: fast %+v, walk %+v", fast.Stats(), walk.Stats())
	}
}

// fuzzConfigs are the geometries FuzzCacheMatchesReference replays each
// trace on: the presets' associativities, with few sets so short traces
// fill and evict, and a non-power-of-two set count at both ends.
var fuzzConfigs = []Config{
	{Name: "4-way-3-sets", SizeBytes: 64 * 4 * 3, Ways: 4, LineSize: 64, LookupLat: sim.Nanosecond},
	{Name: "8-way", SizeBytes: 64 * 8 * 2, Ways: 8, LineSize: 64, LookupLat: sim.Nanosecond},
	{Name: "16-way", SizeBytes: 64 * 16 * 2, Ways: 16, LineSize: 64, LookupLat: sim.Nanosecond},
	{Name: "20-way-3-sets", SizeBytes: 64 * 20 * 3, Ways: 20, LineSize: 64, LookupLat: sim.Nanosecond},
}

// Fuzz op codes: the low nibble of an op byte picks the operation, bit 4
// the dirty flag and bits 5-7 the virtual time in 10 ns steps. The second
// byte of each op is the address in half-line units (128 distinct lines,
// more than any fuzz geometry holds).
const (
	fzLookup    = 0 // demand access (also 1-5 and 15)
	fzFill      = 6 // InsertAbsent right after a miss, else Insert (also 7)
	fzPrefetch  = 8 // Insert with a future arrival
	fzContains  = 9
	fzTouchLast = 10 // TouchLast, falling back to Lookup as the CPU walk does (also 11)
	fzFlush     = 12 // (also 13)
	fzWarm      = 14 // Warm this op's address and the next op's, then a demand access
)

// fuzzOp encodes one fuzz op for the seed corpus.
func fuzzOp(code int, dirty bool, addr byte) []byte {
	if dirty {
		code |= 1 << 4
	}
	return []byte{byte(code), addr}
}

// FuzzCacheMatchesReference decodes the input into an operation trace, used
// the way the CPU walk uses a level — InsertAbsent only for the line whose
// Lookup just missed, TouchLast with a Lookup fallback, Warm ahead of a
// probe — and replays it on the optimized Cache and refCache for every fuzz
// geometry. Every return value and the final statistics must agree, so a
// Warm that changed any cache state would show.
func FuzzCacheMatchesReference(f *testing.F) {
	var cold []byte // probes and flushes before the first fill
	for _, code := range []int{fzLookup, fzContains, fzTouchLast, fzFlush, fzWarm, fzLookup, fzFill, fzTouchLast, fzFlush} {
		cold = append(cold, fuzzOp(code, true, 2)...)
	}
	f.Add(cold)
	var mid []byte // dirty fills, then refills over the same lines
	for a := byte(0); a < 64; a += 3 {
		mid = append(mid, fuzzOp(fzLookup, a%2 == 0, a)...)
		mid = append(mid, fuzzOp(fzFill, a%2 == 0, a)...)
	}
	for a := byte(0); a < 64; a += 5 {
		mid = append(mid, fuzzOp(fzLookup, false, a)...)
		mid = append(mid, fuzzOp(fzFill, true, a)...)
		mid = append(mid, fuzzOp(fzTouchLast, true, a)...)
	}
	f.Add(mid)
	// A Warm whose probe misses must leave the last-hit line to TouchLast.
	f.Add(slices.Concat(fuzzOp(fzLookup, false, 4), fuzzOp(fzFill, false, 4),
		fuzzOp(fzWarm, false, 40), fuzzOp(fzTouchLast, false, 4)))
	var walk []byte // a CPU-walk-like mix long enough to fill and evict every geometry
	x := uint64(0x9e3779b97f4a7c15)
	rnd := func(n uint64) uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return (x >> 33) % n
	}
	var a byte
	for len(walk) < 8192 {
		if rnd(2) == 0 { // otherwise re-access the previous line
			a = byte(rnd(256))
		}
		dirty := rnd(4) == 0
		op := func(code int) { walk = append(walk, fuzzOp(code|int(rnd(8))<<5, dirty, a)...) }
		switch r := rnd(20); {
		case r < 10:
			op(fzLookup)
			op(fzFill)
		case r < 11:
			op(fzWarm)
			op(fzFill)
		case r < 12: // a Warm whose probe may miss with no fill after it
			op(fzWarm)
		case r < 14:
			op(fzTouchLast)
		case r < 16:
			op(fzPrefetch)
		case r < 18:
			op(fzContains)
		default:
			op(fzFlush)
		}
	}
	f.Add(walk)

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, cfg := range fuzzConfigs {
			replayFuzzTrace(t, cfg, data)
		}
	})
}

func replayFuzzTrace(t *testing.T, cfg Config, data []byte) {
	t.Helper()
	opt := mustCache(t, cfg)
	ref := newRefCache(cfg)
	missed, missAddr := false, uintptr(0) // the previous op was a Lookup miss on missAddr
	for i := 0; i+1 < len(data); i += 2 {
		code, addr := data[i], uintptr(data[i+1])*uintptr(cfg.LineSize)/2
		dirty := code&(1<<4) != 0
		now := sim.Time(code>>5) * 10 * sim.Nanosecond
		prevMissed := missed
		missed = false
		switch code & 0xf {
		case fzFill, fzFill + 1:
			var e1, e2 Eviction
			var v1, v2 bool
			if prevMissed {
				e1, v1 = opt.InsertAbsent(missAddr, dirty, now)
				e2, v2 = ref.Insert(missAddr, dirty, now)
			} else {
				e1, v1 = opt.Insert(addr, dirty, now)
				e2, v2 = ref.Insert(addr, dirty, now)
			}
			if e1 != e2 || v1 != v2 {
				t.Fatalf("%s op %d: fill = (%+v,%v), ref (%+v,%v)", cfg.Name, i/2, e1, v1, e2, v2)
			}
		case fzPrefetch:
			e1, v1 := opt.Insert(addr, false, now+100*sim.Nanosecond)
			e2, v2 := ref.Insert(addr, false, now+100*sim.Nanosecond)
			if e1 != e2 || v1 != v2 {
				t.Fatalf("%s op %d: Insert(%#x) = (%+v,%v), ref (%+v,%v)", cfg.Name, i/2, addr, e1, v1, e2, v2)
			}
		case fzContains:
			if got, want := opt.Contains(addr), ref.Contains(addr); got != want {
				t.Fatalf("%s op %d: Contains(%#x) = %v, ref %v", cfg.Name, i/2, addr, got, want)
			}
		case fzTouchLast, fzTouchLast + 1:
			w1, ok1 := opt.TouchLast(addr, now, dirty)
			w2, ok2 := ref.TouchLast(addr, now, dirty)
			if w1 != w2 || ok1 != ok2 {
				t.Fatalf("%s op %d: TouchLast(%#x) = (%v,%v), ref (%v,%v)", cfg.Name, i/2, addr, w1, ok1, w2, ok2)
			}
			if !ok1 {
				missed, missAddr = lookupBoth(t, cfg, i/2, opt, ref, addr, now, dirty), addr
			}
		case fzWarm:
			opt.Warm(addr)
			if i+3 < len(data) {
				opt.Warm(uintptr(data[i+3]) * uintptr(cfg.LineSize) / 2)
			}
			missed, missAddr = lookupBoth(t, cfg, i/2, opt, ref, addr, now, dirty), addr
		case fzFlush, fzFlush + 1:
			p1, d1 := opt.Flush(addr)
			p2, d2 := ref.Flush(addr)
			if p1 != p2 || d1 != d2 {
				t.Fatalf("%s op %d: Flush(%#x) = (%v,%v), ref (%v,%v)", cfg.Name, i/2, addr, p1, d1, p2, d2)
			}
		default:
			missed, missAddr = lookupBoth(t, cfg, i/2, opt, ref, addr, now, dirty), addr
		}
	}
	if opt.Stats() != ref.stats {
		t.Errorf("%s: final stats diverged: opt %+v, ref %+v", cfg.Name, opt.Stats(), ref.stats)
	}
}

// lookupBoth runs one Lookup on both models, requires equal results, and
// reports whether it missed.
func lookupBoth(t *testing.T, cfg Config, op int, opt *Cache, ref *refCache, addr uintptr, now sim.Time, dirty bool) (missed bool) {
	t.Helper()
	h1, w1 := opt.Lookup(addr, now, dirty)
	h2, w2 := ref.Lookup(addr, now, dirty)
	if h1 != h2 || w1 != w2 {
		t.Fatalf("%s op %d: Lookup(%#x) = (%v,%v), ref (%v,%v)", cfg.Name, op, addr, h1, w1, h2, w2)
	}
	return !h1
}
