package perf

import "fmt"

// AccessMode is how software reads the counters.
type AccessMode int

// Counter access modes. The paper (§3.2) measures ~2,000 cycles to read the
// model's counters with rdpmc from user mode versus ~30,000 cycles through
// virtualized frameworks (perf, PAPI) that trap into the kernel — the
// difference that makes epoch overhead amortizable.
const (
	RDPMC AccessMode = iota + 1
	PAPI
)

func (m AccessMode) String() string {
	switch m {
	case RDPMC:
		return "rdpmc"
	case PAPI:
		return "papi"
	default:
		return fmt.Sprintf("AccessMode(%d)", int(m))
	}
}

// ReadCostCycles reports the core cycles consumed by reading n counters in
// the given mode.
func ReadCostCycles(mode AccessMode, n int) int64 {
	switch mode {
	case PAPI:
		return int64(n) * 7500
	default:
		return int64(n) * 500
	}
}

// Counters is one core's PMC bank. The simulated memory hierarchy feeds it
// ground-truth events; reads apply the family fidelity model, so software
// observes realistically imperfect values.
type Counters struct {
	family   Family
	fidelity Fidelity
	enabled  bool

	stallCycles float64 // architectural (bias- and noise-distorted) count
	trueStall   float64 // ground-truth accumulation, for validation only
	l3Hit       uint64
	l3MissLoc   uint64
	l3MissRem   uint64

	// Store-side counts for the asymmetric write model. These are exact
	// (no fidelity distortion): retirement counters for stores are precise
	// on real hardware, and keeping them off the noise sequence means the
	// read-path pseudo-noise stream is bit-identical whether or not the
	// write model observes them.
	stores       uint64
	storeMissLoc uint64
	storeMissRem uint64

	sampleSeq uint64 // advances per accumulation; drives pseudo-noise
}

// NewCounters builds a counter bank for family f with fidelity fid.
func NewCounters(f Family, fid Fidelity) *Counters {
	return &Counters{family: f, fidelity: fid}
}

// Family reports the counter bank's processor family.
func (c *Counters) Family() Family { return c.family }

// SetEnabled turns event counting on or off (core.Attach enables every
// core's bank).
func (c *Counters) SetEnabled(on bool) { c.enabled = on }

// AddStallCycles accumulates memory stall cycles (loads pending beyond L2).
// The family fidelity distortion — a multiplicative bias plus bounded
// pseudo-noise — applies to each increment: real counters mis-attribute
// *activity* (what gets counted during an interval), so their error scales
// with the increment, not with the cumulative register value.
func (c *Counters) AddStallCycles(cycles float64) {
	if !c.enabled || cycles <= 0 {
		return
	}
	c.trueStall += cycles
	v := cycles * c.fidelity.StallBias
	if c.fidelity.StallNoise > 0 {
		c.sampleSeq++
		v *= 1 + c.fidelity.StallNoise*noiseUnit(c.sampleSeq)
	}
	if v > 0 {
		c.stallCycles += v
	}
}

// CountL3Hit records a load served by the last-level cache.
func (c *Counters) CountL3Hit() {
	if c.enabled {
		c.l3Hit++
	}
}

// CountL3Miss records a load served by DRAM on the given NUMA relationship.
func (c *Counters) CountL3Miss(remote bool) {
	if !c.enabled {
		return
	}
	if remote {
		c.l3MissRem++
	} else {
		c.l3MissLoc++
	}
}

// CountStore records a retired store uop.
func (c *Counters) CountStore() {
	if c.enabled {
		c.stores++
	}
}

// CountStoreMiss records a store (RFO) served by memory on the given NUMA
// relationship.
func (c *Counters) CountStoreMiss(remote bool) {
	if !c.enabled {
		return
	}
	if remote {
		c.storeMissRem++
	} else {
		c.storeMissLoc++
	}
}

// Read returns the architectural value of event e as user software would see
// it via rdpmc, including the family fidelity distortion on stall counts.
// Events the family cannot count (Table 1) return an error.
func (c *Counters) Read(e Event) (uint64, error) {
	if _, ok := EventName(c.family, e); !ok {
		return 0, fmt.Errorf("perf: event %v not available on %v", e, c.family)
	}
	switch e {
	case EventStallsL2Pending:
		return uint64(c.stallCycles), nil
	case EventL3Hit:
		return c.l3Hit, nil
	case EventL3Miss:
		return c.l3MissLoc + c.l3MissRem, nil
	case EventL3MissLocal:
		return c.l3MissLoc, nil
	case EventL3MissRemote:
		return c.l3MissRem, nil
	case EventStoresRetired:
		return c.stores, nil
	case EventStoreMiss:
		return c.storeMissLoc + c.storeMissRem, nil
	case EventStoreMissLocal:
		return c.storeMissLoc, nil
	case EventStoreMissRemote:
		return c.storeMissRem, nil
	default:
		return 0, fmt.Errorf("perf: unknown event %v", e)
	}
}

// TrueStallCycles exposes the undistorted stall accumulation for validation
// harnesses and tests; real software cannot observe this.
func (c *Counters) TrueStallCycles() float64 { return c.trueStall }

// noiseUnit maps a sequence number to a deterministic value in [-1, 1] via a
// splitmix64 hash, giving reproducible "measurement noise".
func noiseUnit(seq uint64) float64 {
	z := seq + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z)/float64(1<<63) - 1
}
