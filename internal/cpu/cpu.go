// Package cpu models processor cores: the cache walk for loads and stores,
// memory-level parallelism through MSHR-bounded parallel load groups, stall
// attribution to performance counters, the invariant timestamp counter
// (rdtscp), and an optional DVFS governor whose frequency wobble breaks the
// cycles-to-nanoseconds translation exactly as §6 of the paper warns.
package cpu

import (
	"fmt"
	"math/bits"

	"github.com/quartz-emu/quartz/internal/cache"
	"github.com/quartz-emu/quartz/internal/mem"
	"github.com/quartz-emu/quartz/internal/perf"
	"github.com/quartz-emu/quartz/internal/sim"
)

// MemorySystem routes line requests to NUMA memory controllers. It is
// implemented by machine.Machine.
type MemorySystem interface {
	// HomeNode reports the NUMA node owning the physical address.
	HomeNode(addr uintptr) int
	// Access admits a line request at virtual time now issued by a core on
	// fromSocket and returns its completion time.
	Access(now sim.Time, addr uintptr, kind mem.AccessKind, fromSocket int) sim.Time
}

// Source classifies where a load was served from.
type Source int

// Load sources.
const (
	SrcL1 Source = iota + 1
	SrcL2
	SrcL3
	SrcMemLocal
	SrcMemRemote
)

func (s Source) String() string {
	switch s {
	case SrcL1:
		return "L1"
	case SrcL2:
		return "L2"
	case SrcL3:
		return "L3"
	case SrcMemLocal:
		return "local DRAM"
	case SrcMemRemote:
		return "remote DRAM"
	default:
		return fmt.Sprintf("Source(%d)", int(s))
	}
}

// Config describes one core.
type Config struct {
	// FreqHz is the nominal core frequency.
	FreqHz float64
	// MSHRs bounds outstanding parallel demand misses (memory-level
	// parallelism). Modern Xeons have 10 line-fill buffers per core.
	MSHRs int
	// LineSize is the cache line size in bytes.
	LineSize int
	// PrefetchDepth is the stream prefetcher's look-ahead distance in
	// lines (0 disables prefetching).
	PrefetchDepth int
}

// Validate reports whether the core configuration is usable.
func (c Config) Validate() error {
	if c.FreqHz <= 0 {
		return fmt.Errorf("cpu: FreqHz = %g, must be positive", c.FreqHz)
	}
	if c.MSHRs <= 0 {
		return fmt.Errorf("cpu: MSHRs = %d, must be positive", c.MSHRs)
	}
	if c.LineSize <= 0 {
		return fmt.Errorf("cpu: LineSize = %d, must be positive", c.LineSize)
	}
	if c.PrefetchDepth < 0 {
		return fmt.Errorf("cpu: PrefetchDepth = %d, must be non-negative", c.PrefetchDepth)
	}
	return nil
}

// Core is one simulated hardware thread's execution resources.
type Core struct {
	socket int
	cfg    Config

	l1, l2 *cache.Cache // private
	l3     *cache.Cache // shared within the socket
	// pf is built at the core's first prefetch, so the idle cores of a
	// simulated machine cost no stream table.
	pf     *cache.Prefetcher
	ctr    *perf.Counters
	memsys MemorySystem
	dvfs   *DVFS

	// Hot-path caches: the per-level probe latencies (so the walk does not
	// copy a Config struct per probe) and the line-address shift.
	l1Lat, l2Lat, l3Lat sim.Time
	lineShift           uint
	linePow2            bool
}

// NewCore assembles a core. l3 is the socket-shared last-level cache; ctr is
// the core's PMC bank; dvfs may be nil for a fixed-frequency core.
func NewCore(id, socket int, cfg Config, l1, l2, l3 *cache.Cache, ctr *perf.Counters, memsys MemorySystem, dvfs *DVFS) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if l1 == nil || l2 == nil || l3 == nil || ctr == nil || memsys == nil {
		return nil, fmt.Errorf("cpu: core %d: nil component", id)
	}
	c := &Core{
		socket: socket, cfg: cfg,
		l1: l1, l2: l2, l3: l3,
		ctr:    ctr,
		memsys: memsys,
		dvfs:   dvfs,
		l1Lat:  l1.LookupLat(),
		l2Lat:  l2.LookupLat(),
		l3Lat:  l3.LookupLat(),
	}
	if cfg.LineSize&(cfg.LineSize-1) == 0 {
		c.lineShift = uint(bits.TrailingZeros(uint(cfg.LineSize)))
		c.linePow2 = true
	}
	return c, nil
}

// Counters exposes the core's PMC bank.
func (c *Core) Counters() *perf.Counters { return c.ctr }

// L1 exposes the private first-level cache (for tests and statistics).
func (c *Core) L1() *cache.Cache { return c.l1 }

// L2 exposes the private second-level cache.
func (c *Core) L2() *cache.Cache { return c.l2 }

// FreqHz reports the core's nominal frequency.
func (c *Core) FreqHz() float64 { return c.cfg.FreqHz }

// TSC reports the invariant timestamp counter at virtual time now. Like
// rdtscp on modern x86, it advances at the nominal frequency regardless of
// DVFS state.
func (c *Core) TSC(now sim.Time) uint64 {
	return uint64(sim.TimeToCycles(now, c.cfg.FreqHz))
}

// TimeForCycles converts a TSC cycle count to virtual time.
func (c *Core) TimeForCycles(cycles int64) sim.Time {
	return sim.CyclesToTime(cycles, c.cfg.FreqHz)
}

// ComputeTime reports how long n core cycles of computation take starting at
// virtual time now, accounting for the current DVFS frequency.
func (c *Core) ComputeTime(now sim.Time, cycles int64) sim.Time {
	f := c.cfg.FreqHz
	if c.dvfs != nil {
		f *= c.dvfs.FactorAt(now)
	}
	return sim.CyclesToTime(cycles, f)
}

// effectiveFreq is the instantaneous core frequency at time now.
func (c *Core) effectiveFreq(now sim.Time) float64 {
	if c.dvfs == nil {
		return c.cfg.FreqHz
	}
	return c.cfg.FreqHz * c.dvfs.FactorAt(now)
}

// Load performs one demand load at virtual time now and returns its latency
// and serving source. Counter state (L3 hits/misses, stall cycles) is
// updated as a side effect.
func (c *Core) Load(now sim.Time, addr uintptr) (sim.Time, Source) {
	// Last-line filter: a repeat access to the most recently touched L1
	// line skips the hierarchy walk. TouchLast performs the exact hit
	// bookkeeping Lookup would, and L1 hits record no stall, so the fast
	// path is bit-identical to the walk below.
	if wait, ok := c.l1.TouchLast(addr, now+c.l1Lat, false); ok {
		return c.l1Lat + wait, SrcL1
	}
	lat, src := c.loadOne(now, addr)
	c.recordStall(now, lat, src)
	return lat, src
}

// loadFast is loadOne behind the last-line filter (no stall accounting).
func (c *Core) loadFast(now sim.Time, addr uintptr) (sim.Time, Source) {
	if wait, ok := c.l1.TouchLast(addr, now+c.l1Lat, false); ok {
		return c.l1Lat + wait, SrcL1
	}
	return c.loadOne(now, addr)
}

// Warm is a host-only hint that a load of addr follows soon: it has the
// host prefetch the socket L3's state for addr's set (cache.Cache.Warm), the
// level a missing chase walks last and whose arrays are too large to stay in
// the host caches. It changes no simulated state, time or counter.
func (c *Core) Warm(addr uintptr) { c.l3.Warm(addr) }

// LoadGroup performs len(addrs) independent demand loads issued in parallel
// (memory-level parallelism), bounded by the core's MSHR count. It returns
// the overlapped completion latency of the whole group. Stall cycles are
// credited once per group — requests served in parallel with an outstanding
// request do not add stall cycles, exactly the property of
// CYCLE_ACTIVITY:STALLS_L2_PENDING the paper's Eq. 2 relies on.
func (c *Core) LoadGroup(now sim.Time, addrs []uintptr) sim.Time {
	var total sim.Time
	start := now
	for len(addrs) > 0 {
		wave := addrs
		if len(wave) > c.cfg.MSHRs {
			wave = wave[:c.cfg.MSHRs]
		}
		addrs = addrs[len(wave):]
		var waveLat, waveStall sim.Time
		for _, a := range wave {
			lat, src := c.loadFast(start, a)
			if lat > waveLat {
				waveLat = lat
			}
			if src >= SrcL3 && lat > waveStall {
				waveStall = lat
			}
		}
		if waveStall > 0 {
			c.ctr.AddStallCycles(sim.TimeToCycles(waveStall, c.effectiveFreq(start)))
		}
		start += waveLat
		total += waveLat
	}
	return total
}

// LoadGroupRun is LoadGroup over the arithmetic address sequence base,
// base+stride, …, base+(n-1)*stride, sparing streaming callers the
// address-slice rebuild on every batch. Wave structure, stall attribution
// and latencies are identical to LoadGroup over the same addresses.
func (c *Core) LoadGroupRun(now sim.Time, base, stride uintptr, n int) sim.Time {
	var total sim.Time
	start := now
	for n > 0 {
		wave := n
		if wave > c.cfg.MSHRs {
			wave = c.cfg.MSHRs
		}
		n -= wave
		var waveLat, waveStall sim.Time
		for ; wave > 0; wave-- {
			lat, src := c.loadFast(start, base)
			base += stride
			if lat > waveLat {
				waveLat = lat
			}
			if src >= SrcL3 && lat > waveStall {
				waveStall = lat
			}
		}
		if waveStall > 0 {
			c.ctr.AddStallCycles(sim.TimeToCycles(waveStall, c.effectiveFreq(start)))
		}
		start += waveLat
		total += waveLat
	}
	return total
}

// Store performs one store at virtual time now and returns its latency as
// seen by the pipeline. Stores are posted (absorbed by the store buffer and
// write-back caches): a miss triggers a write-allocate line fill that
// consumes memory bandwidth, but the pipeline only pays the L1 latency and
// no stall cycles are recorded — the property that makes pflush necessary
// for persistent-memory write modeling (§3.1).
func (c *Core) Store(now sim.Time, addr uintptr) sim.Time {
	c.ctr.CountStore()
	// Last-line filter: a repeat store to the most recently touched L1 line
	// dirties it with the exact bookkeeping Lookup would perform.
	if _, ok := c.l1.TouchLast(addr, now, true); ok {
		return c.l1Lat
	}
	if hit, _ := c.l1.Lookup(addr, now, true); hit {
		return c.l1Lat
	}
	// Write-allocate: fetch the line in the background. The levels probed
	// above missed, so their fills skip the presence walk.
	if hit, _ := c.l2.Lookup(addr, now, false); hit {
		// Re-inserting the hit line (no eviction possible) takes an
		// in-flight fill's arrival forward to now.
		c.l2.Insert(addr, false, now)
		c.insertAbsent(now, c.l1, addr, true, now)
		return c.l1Lat
	}
	if hit, _ := c.l3.Lookup(addr, now, false); hit {
		c.insertAbsent(now, c.l2, addr, false, now)
		c.insertAbsent(now, c.l1, addr, true, now)
		return c.l1Lat
	}
	done := c.memsys.Access(now, addr, mem.Write, c.socket)
	c.ctr.CountStoreMiss(c.memsys.HomeNode(addr) != c.socket)
	c.fill(now, addr, true, done)
	return c.l1Lat
}

// Flush writes back (if dirty) and invalidates the line holding addr from
// the whole hierarchy, modeling clflush. The returned latency covers the
// instruction itself; the writeback is posted and its completion time is
// returned separately for callers that must stall on it (pflush).
func (c *Core) Flush(now sim.Time, addr uintptr) (lat, writebackDone sim.Time) {
	const flushCycles = 40 // clflush issue cost
	dirty := false
	if _, d := c.l1.Flush(addr); d {
		dirty = true
	}
	if _, d := c.l2.Flush(addr); d {
		dirty = true
	}
	if _, d := c.l3.Flush(addr); d {
		dirty = true
	}
	lat = c.ComputeTime(now, flushCycles)
	if dirty {
		writebackDone = c.memsys.Access(now+lat, addr, mem.Writeback, c.socket)
	}
	return lat, writebackDone
}

// loadOne walks the hierarchy for a single load.
func (c *Core) loadOne(now sim.Time, addr uintptr) (sim.Time, Source) {
	t := now

	t += c.l1Lat
	if hit, wait := c.l1.Lookup(addr, t, false); hit {
		return t + wait - now, SrcL1
	}

	t += c.l2Lat
	if hit, wait := c.l2.Lookup(addr, t, false); hit {
		t += wait
		c.promote(now, addr, t, false)
		// The L2 streamer observes requests arriving at L2 (hits and
		// misses alike), keeping the prefetch frontier moving even when
		// the demand stream runs entirely out of prefetched lines.
		c.prefetch(now, addr)
		return t - now, SrcL2
	}

	t += c.l3Lat
	if hit, wait := c.l3.Lookup(addr, t, false); hit {
		t += wait
		// Loads served by a still-in-flight fill (typically started by
		// another core or the prefetcher) are not clean XSNP_NONE hits —
		// the Table 1 hit events deliberately exclude them, so their
		// near-memory-latency stalls are not discounted by Eq. 3's
		// hit/miss weighting.
		if wait <= c.l3Lat {
			c.ctr.CountL3Hit()
		}
		c.promote(now, addr, t, true)
		c.prefetch(now, addr)
		return t - now, SrcL3
	}

	// Demand miss to DRAM.
	done := c.memsys.Access(t, addr, mem.Read, c.socket)
	remote := c.memsys.HomeNode(addr) != c.socket
	c.ctr.CountL3Miss(remote)
	c.fill(t, addr, false, done)
	c.prefetch(now, addr)
	src := SrcMemLocal
	if remote {
		src = SrcMemRemote
	}
	return done - now, src
}

// recordStall credits stall cycles for a single load served beyond L2.
func (c *Core) recordStall(now sim.Time, lat sim.Time, src Source) {
	if src >= SrcL3 {
		c.ctr.AddStallCycles(sim.TimeToCycles(lat, c.effectiveFreq(now)))
	}
}

// promote installs a load's line into the levels above its serving level,
// which the walk just missed: L1, and L2 as well when fromL3. The serving
// level is left alone: its hit already made the line MRU, and arrival (the
// load's completion) is never before the line's own arrival, so a
// re-insert there would change nothing.
func (c *Core) promote(now sim.Time, addr uintptr, arrival sim.Time, fromL3 bool) {
	c.insertAbsent(now, c.l1, addr, false, arrival)
	if fromL3 {
		c.insertAbsent(now, c.l2, addr, false, arrival)
	}
}

// fill installs a line that missed every level into the whole hierarchy
// after a memory access.
func (c *Core) fill(now sim.Time, addr uintptr, dirty bool, arrival sim.Time) {
	c.insertAbsent(now, c.l3, addr, false, arrival)
	c.insertAbsent(now, c.l2, addr, false, arrival)
	c.insertAbsent(now, c.l1, addr, dirty, arrival)
}

// insertAbsent fills a line level is known not to hold (it just missed
// there) and posts a writeback for any dirty victim. The writeback occupies
// a channel slot at the current walk time — not at the incoming line's
// (possibly future) arrival — so that a posted future request cannot block
// earlier traffic on the single-slot channel reservation model.
func (c *Core) insertAbsent(now sim.Time, level *cache.Cache, addr uintptr, dirty bool, arrival sim.Time) {
	if ev, evicted := level.InsertAbsent(addr, dirty, arrival); evicted && ev.Dirty {
		c.memsys.Access(now, ev.Addr, mem.Writeback, c.socket)
	}
}

// prefetch feeds the stream detector and issues proposed fills into L3 (and
// L2) with future arrival times.
func (c *Core) prefetch(now sim.Time, addr uintptr) {
	if c.cfg.PrefetchDepth == 0 {
		return
	}
	if c.pf == nil {
		c.pf = cache.NewPrefetcher(c.cfg.PrefetchDepth)
	}
	lineSize := uintptr(c.cfg.LineSize)
	var line uintptr
	if c.linePow2 {
		line = addr >> c.lineShift
	} else {
		line = addr / lineSize
	}
	for _, line := range c.pf.Observe(line) {
		pAddr := line * lineSize
		if c.l3.Contains(pAddr) || c.l2.Contains(pAddr) {
			continue
		}
		arrival := c.memsys.Access(now, pAddr, mem.Prefetch, c.socket)
		c.insertAbsent(now, c.l3, pAddr, false, arrival)
		c.insertAbsent(now, c.l2, pAddr, false, arrival)
	}
}
