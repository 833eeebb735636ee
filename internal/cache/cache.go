// Package cache models set-associative write-back caches with LRU
// replacement, in-flight fill tracking (so a prefetched line that has not
// yet arrived still charges partial latency), explicit line flushes
// (clflush/clflushopt), and a simple stream prefetcher.
//
// The storage layout is optimized for the simulator's hot path: instead of
// an array of per-line structs, the cache keeps parallel arrays so that the
// set walk — the single hottest loop in the whole simulation — scans a
// compact one-byte signature vector (a hash of each way's tag, with 0
// reserved for invalid ways) and touches the full 8-byte tag only to verify
// a signature match. A large modeled L3 keeps its whole signature vector
// host-cache resident where the tag vector would not be, so a set probe
// that misses costs one host cache line instead of several; false signature
// matches (~ways/255 per probe) are filtered by the exact tag compare, so
// outcomes never depend on the hash. The full tag and the in-flight arrival
// time live in one 16-byte record so a hit verifies and reads one metadata
// line.
//
// Recency is an intrusive doubly-linked list per set (one-byte prev/next
// links per way, plus a per-set head/tail/count record), the scheme the
// Prefetcher uses for its stream table: every touch moves the way to the
// tail, so the LRU victim of a full set is the list head, found without a
// scan. Touch order is exactly the order of the reference model's
// increasing LRU clock, so the head is always the way its min-scan picks.
// The tail doubles as the per-set MRU hint that resolves the common
// repeat-hit in one probe, and a cache-global last-hit fast path
// (TouchLast) lets the CPU layer skip the walk entirely for consecutive
// accesses to the same line; that line is always its set's tail, so the
// fast path needs no list operation. InsertAbsent serves fills the caller
// already knows miss (the level was just probed), skipping the presence
// walk. Every fast path performs bit-identical bookkeeping to the plain
// walk: hit/miss outcomes, victims, statistics and in-flight arrival
// accounting are unchanged, so simulated virtual time is unaffected (the
// determinism gate the equivalence tests pin down).
//
// No-allocation contract: a level allocates once, at its first fill, and
// never again. New only records the geometry, and a probe of a level
// nothing has filled answers exactly as an empty level does (a miss, an
// absent line), so a simulated machine costs only the levels its run
// touches: an idle core's L1/L2 and an unused socket's L3 stay a bare
// Cache struct. Apart from that first fill, the steady-state operations —
// Lookup, TouchLast, Insert, InsertAbsent, Flush, Contains, Warm and the
// prefetcher's Observe — never allocate. `make bench-alloc` gates this
// with testing.AllocsPerRun.
package cache

import (
	"bytes"
	"fmt"
	"math/bits"
	"unsafe"

	"github.com/quartz-emu/quartz/internal/sim"
)

// maxWays is the widest associativity a set's one-byte recency links can
// address.
const maxWays = 256

// Config describes one cache level.
type Config struct {
	// Name labels the level for diagnostics (e.g. "L1d", "L3").
	Name string
	// SizeBytes is the total capacity.
	SizeBytes int
	// Ways is the associativity (at most maxWays).
	Ways int
	// LineSize is the line size in bytes.
	LineSize int
	// LookupLat is the latency contribution of probing this level.
	LookupLat sim.Time
}

// Validate reports whether the configuration describes a buildable cache.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineSize <= 0 {
		return fmt.Errorf("cache %q: size/ways/linesize must be positive (got %d/%d/%d)",
			c.Name, c.SizeBytes, c.Ways, c.LineSize)
	}
	if c.Ways > maxWays {
		return fmt.Errorf("cache %q: %d ways exceeds the maximum of %d", c.Name, c.Ways, maxWays)
	}
	lines := c.SizeBytes / c.LineSize
	if lines%c.Ways != 0 {
		return fmt.Errorf("cache %q: %d lines not divisible by %d ways", c.Name, lines, c.Ways)
	}
	return nil
}

// Stats aggregates cache activity.
type Stats struct {
	Hits           int64
	Misses         int64
	Evictions      int64
	DirtyEvictions int64
	Flushes        int64
}

// Eviction describes a line displaced by an insert.
type Eviction struct {
	Addr  uintptr // line-aligned address
	Dirty bool
}

// wayMeta pairs the per-way fill arrival time with the stored tag (tag+1,
// meaningful only while the way's signature is nonzero). A hit verifies the
// tag and reads the arrival from one 16-byte record — a single metadata
// line — and an eviction reconstructs the victim's address from the same
// line the insert is about to overwrite.
type wayMeta struct {
	arrival sim.Time
	tag     uintptr
}

// wayLink is a way's place in its set's recency list, as way indices within
// the set. The tail's next and the head's prev are stale and never read.
type wayLink struct {
	prev, next uint8
}

// setList is a set's recency list over its valid ways: head is the LRU way,
// tail the MRU way, n the number of valid ways. head and tail are
// meaningful only while n > 0, but like every link they always hold an
// in-range way index, so probing the tail is safe on an empty set (an
// invalid way's zero signature matches nothing).
type setList struct {
	head, tail uint8
	n          uint16
}

// Cache is one set-associative write-back cache level.
//
// Line state is held in parallel arrays indexed by set*ways+way. meta holds
// each way's tag as tag+1 so that zero means "invalid way"; sigs holds a
// one-byte hash of that value (0 = invalid way), the vector the set walk
// actually scans. A way is valid iff its signature is nonzero, and the
// valid ways of a set are exactly the members of its recency list. The
// arrays stay nil until the level's first fill (alloc); until then every
// entry point treats the level as empty.
type Cache struct {
	cfg   Config
	sigs  []uint8   // signature of meta[i].tag per way; 0 = invalid
	meta  []wayMeta // per way; fill arrival + tag
	links []wayLink // per way; recency-list links
	dirty []bool    // per way
	lists []setList // per set

	numSets   int
	ways      int
	setMask   int  // numSets-1 when numSets is a power of two, else 0
	lineShift uint // log2(LineSize) when it is a power of two
	linePow2  bool

	// lastIdx remembers the most recently hit (or inserted) line for the
	// TouchLast fast path; it is -1 when no such line is valid. That line
	// is always the tail of its set's recency list.
	lastIdx int

	stats Stats
}

// sigOf hashes a stored tag value (tag+1, never zero) to its one-byte walk
// signature. Zero is reserved for invalid ways, so a valid signature is
// remapped away from it; any deterministic mixing works — a false match
// only costs one exact tag compare.
func sigOf(want uintptr) uint8 {
	s := uint8(want ^ want>>13 ^ want>>27)
	if s == 0 {
		return 0xa5
	}
	return s
}

// New validates cfg and records the level's geometry. The line arrays are
// left to the level's first fill.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	numSets := cfg.SizeBytes / cfg.LineSize / cfg.Ways
	mask := 0
	if numSets&(numSets-1) == 0 {
		mask = numSets - 1
	}
	c := &Cache{
		cfg:     cfg,
		numSets: numSets,
		ways:    cfg.Ways,
		setMask: mask,
		lastIdx: -1,
	}
	if cfg.LineSize&(cfg.LineSize-1) == 0 {
		c.lineShift = uint(bits.TrailingZeros(uint(cfg.LineSize)))
		c.linePow2 = true
	}
	return c, nil
}

// alloc builds the line arrays, all empty. Insert and InsertAbsent call it
// on the level's first fill; it is the only allocation a level makes.
//
// The arrays go largest first. The Go page allocator puts each large
// allocation in the lowest free range that fits, so meta (16 B a line)
// claims the range a freed machine's arrays left before the small arrays
// can split it. With sigs first, whether a 25 MiB L3's meta fit the range
// a 20 MiB L3 had freed hung on where unrelated small objects fell, and a
// process building both read 15.4 or 18.3 MB of peak RSS from run to run.
func (c *Cache) alloc() {
	lines := c.numSets * c.ways
	c.meta = make([]wayMeta, lines)
	c.links = make([]wayLink, lines)
	c.sigs = make([]uint8, lines)
	c.dirty = make([]bool, lines)
	c.lists = make([]setList, c.numSets)
}

// LookupLat reports the level's probe latency without copying the whole
// configuration (the hot-path accessor for the CPU walk).
func (c *Cache) LookupLat() sim.Time { return c.cfg.LookupLat }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// tagOf maps an address to its line tag (addr / LineSize; a shift when the
// line size is a power of two — unsigned division and shift agree exactly).
func (c *Cache) tagOf(addr uintptr) uintptr {
	if c.linePow2 {
		return addr >> c.lineShift
	}
	return addr / uintptr(c.cfg.LineSize)
}

// setOf maps a tag to its set index.
func (c *Cache) setOf(tag uintptr) int {
	if c.setMask != 0 {
		return int(tag) & c.setMask
	}
	return int(tag % uintptr(c.numSets))
}

// find returns the way within the set at base holding the stored tag want
// (with signature sig), or -1 when the line is absent.
func (c *Cache) find(base int, want uintptr, sig uint8) int {
	for i, s := range c.sigs[base : base+c.ways] {
		if s == sig && c.meta[base+i].tag == want {
			return i
		}
	}
	return -1
}

// touch moves valid way w of the set at base to the MRU end of its list.
func (c *Cache) touch(l *setList, base, w int) {
	if int(l.tail) == w {
		return
	}
	lk := &c.links[base+w]
	if int(l.head) == w {
		l.head = lk.next
	} else {
		c.links[base+int(lk.prev)].next = lk.next
	}
	c.links[base+int(lk.next)].prev = lk.prev // w is not the tail
	lk.prev = l.tail
	c.links[base+int(l.tail)].next = uint8(w)
	l.tail = uint8(w)
}

// hitAt performs the bookkeeping of a hit on the way at index idx, which
// must already be its set's MRU way, and returns the residual in-flight
// wait. It is the single shared hit path, so the MRU probe, the walk and
// TouchLast are bit-identical by construction.
func (c *Cache) hitAt(idx int, now sim.Time, markDirty bool) (wait sim.Time) {
	if markDirty {
		c.dirty[idx] = true
	}
	c.stats.Hits++
	c.lastIdx = idx
	if a := c.meta[idx].arrival; a > now {
		return a - now
	}
	return 0
}

// Lookup probes the cache at virtual time now. On a hit it updates LRU state
// and returns any residual wait for an in-flight fill (zero once the line
// has fully arrived). markDirty additionally dirties the line (a store hit).
func (c *Cache) Lookup(addr uintptr, now sim.Time, markDirty bool) (hit bool, wait sim.Time) {
	if c.sigs == nil { // never filled: every line is absent
		c.stats.Misses++
		return false, 0
	}
	tag := c.tagOf(addr)
	set := c.setOf(tag)
	base := set * c.ways
	want := tag + 1
	sig := sigOf(want)
	l := &c.lists[set]
	// MRU probe: the set's most recently touched way.
	if m := base + int(l.tail); c.sigs[m] == sig && c.meta[m].tag == want {
		return true, c.hitAt(m, now, markDirty)
	}
	if w := c.find(base, want, sig); w >= 0 {
		c.touch(l, base, w)
		return true, c.hitAt(base+w, now, markDirty)
	}
	c.stats.Misses++
	return false, 0
}

// TouchLast re-hits the cache's most recently hit or filled line when addr
// still maps to it, performing bookkeeping identical to Lookup, and reports
// ok=false (with no side effects) otherwise, as it always does on a
// never-filled level. It lets the CPU's per-core last-line filter skip the
// set walk for consecutive same-line accesses.
func (c *Cache) TouchLast(addr uintptr, now sim.Time, markDirty bool) (wait sim.Time, ok bool) {
	idx := c.lastIdx
	if idx < 0 || c.meta[idx].tag != c.tagOf(addr)+1 {
		return 0, false
	}
	return c.hitAt(idx, now, markDirty), true
}

// Contains reports whether the line holding addr is present, without
// touching LRU or statistics.
func (c *Cache) Contains(addr uintptr) bool {
	if c.sigs == nil {
		return false
	}
	tag := c.tagOf(addr)
	set := c.setOf(tag)
	base := set * c.ways
	want := tag + 1
	sig := sigOf(want)
	if m := base + int(c.lists[set].tail); c.sigs[m] == sig && c.meta[m].tag == want {
		return true
	}
	return c.find(base, want, sig) >= 0
}

// Insert fills the line holding addr, evicting the LRU victim if the set is
// full. arrival is when the fill data lands (demand fills arrive "now";
// prefetches arrive later). The displaced line, if any, is returned so the
// caller can issue a writeback. A line already present (e.g. a racing
// prefetch) is refreshed instead: it becomes MRU, keeps its dirty bit, and
// takes the earlier of the two arrivals.
func (c *Cache) Insert(addr uintptr, dirty bool, arrival sim.Time) (ev Eviction, evicted bool) {
	if c.sigs == nil {
		c.alloc()
	}
	tag := c.tagOf(addr)
	set := c.setOf(tag)
	base := set * c.ways
	want := tag + 1
	sig := sigOf(want)
	if w := c.find(base, want, sig); w >= 0 {
		idx := base + w
		c.touch(&c.lists[set], base, w)
		c.dirty[idx] = c.dirty[idx] || dirty
		if arrival < c.meta[idx].arrival {
			c.meta[idx].arrival = arrival
		}
		c.lastIdx = idx
		return Eviction{}, false
	}
	return c.place(set, base, want, sig, dirty, arrival)
}

// InsertAbsent is Insert for a line the caller knows is absent: a fill that
// follows a miss on this cache with no operation on it in between. It skips
// the presence walk, and on a full set it does no scan at all.
func (c *Cache) InsertAbsent(addr uintptr, dirty bool, arrival sim.Time) (ev Eviction, evicted bool) {
	if c.sigs == nil {
		c.alloc()
	}
	tag := c.tagOf(addr)
	set := c.setOf(tag)
	want := tag + 1
	return c.place(set, set*c.ways, want, sigOf(want), dirty, arrival)
}

// place installs an absent line into the set at base. The victim is the
// first invalid way when there is one, else the LRU way (the list head) —
// the way the reference walk picks — and a displaced line is counted and
// returned. The installed way becomes the set's MRU way.
func (c *Cache) place(set, base int, want uintptr, sig uint8, dirty bool, arrival sim.Time) (ev Eviction, evicted bool) {
	l := &c.lists[set]
	var w int
	if int(l.n) == c.ways {
		w = int(l.head)
		idx := base + w
		c.stats.Evictions++
		if c.dirty[idx] {
			c.stats.DirtyEvictions++
		}
		ev = Eviction{Addr: (c.meta[idx].tag - 1) * uintptr(c.cfg.LineSize), Dirty: c.dirty[idx]}
		evicted = true
		c.touch(l, base, w)
	} else {
		w = bytes.IndexByte(c.sigs[base:base+c.ways], 0)
		if l.n == 0 {
			l.head = uint8(w)
		} else {
			c.links[base+int(l.tail)].next = uint8(w)
		}
		c.links[base+w].prev = l.tail
		l.tail = uint8(w)
		l.n++
	}
	idx := base + w
	c.sigs[idx] = sig
	c.dirty[idx] = dirty
	c.meta[idx] = wayMeta{arrival: arrival, tag: want}
	c.lastIdx = idx
	return ev, evicted
}

// Flush invalidates the line holding addr, reporting whether it was present
// and whether it was dirty (and therefore needs a writeback). This models
// clflush/clflushopt.
func (c *Cache) Flush(addr uintptr) (present, dirty bool) {
	if c.sigs == nil {
		return false, false
	}
	tag := c.tagOf(addr)
	set := c.setOf(tag)
	base := set * c.ways
	want := tag + 1
	w := c.find(base, want, sigOf(want))
	if w < 0 {
		return false, false
	}
	idx := base + w
	c.stats.Flushes++
	present, dirty = true, c.dirty[idx]
	c.sigs[idx] = 0
	c.dirty[idx] = false
	c.meta[idx] = wayMeta{}
	l, lk := &c.lists[set], c.links[idx]
	if int(l.head) == w {
		l.head = lk.next
	} else {
		c.links[base+int(lk.prev)].next = lk.next
	}
	if int(l.tail) == w {
		l.tail = lk.prev
	} else {
		c.links[base+int(lk.next)].prev = lk.prev
	}
	l.n--
	if c.lastIdx == idx {
		c.lastIdx = -1
	}
	return present, dirty
}

// Warm is a host-only hint for a probe of addr's set that comes later: it
// issues one host prefetch each for the set's signature, list, link and
// dirty lines and for every line of its ways' metadata, so that probe finds
// them in the host caches. It changes no cache state and no statistics, so
// simulated results never depend on it; on a level nothing has filled it
// returns at once.
func (c *Cache) Warm(addr uintptr) {
	if c.sigs == nil {
		return
	}
	set := c.setOf(c.tagOf(addr))
	base := set * c.ways
	hostPrefetch(uintptr(unsafe.Pointer(&c.sigs[base])))
	hostPrefetch(uintptr(unsafe.Pointer(&c.lists[set])))
	hostPrefetch(uintptr(unsafe.Pointer(&c.links[base])))
	hostPrefetch(uintptr(unsafe.Pointer(&c.dirty[base])))
	meta := uintptr(unsafe.Pointer(&c.meta[base]))
	for p, end := meta&^63, meta+uintptr(c.ways)*unsafe.Sizeof(wayMeta{}); p < end; p += 64 {
		hostPrefetch(p)
	}
}
