// Package mem models NUMA memory: per-socket integrated memory controllers
// with multiple DRAM channels, token-bucket bandwidth accounting, and the
// DRAM thermal-control throttle registers (THRT_PWR_DIMM_[0:2] on Intel Xeon
// parts) that Quartz programs to emulate NVM bandwidth.
//
// Throttling follows the paper's Figure 8: available bandwidth grows
// linearly with the 12-bit register value until the hardware maximum is
// reached, after which larger values have no further effect.
//
// Access is on the per-load hot path (every L3 miss lands here), so the
// steady state allocates nothing: channel state lives in flat arrays sized
// at construction, and token-bucket occupancy is recomputed only on
// throttle-register writes. The no-allocation contract is enforced by the
// gates behind `make bench-alloc`; see doc/performance.md.
//
// The simulated cache line is one constant, LineSize: the unit the
// controller moves and the caches and cores tag, prefetch and flush by.
// All three Xeon testbeds of the paper have 64-byte lines, so it is not a
// configuration value. The device's internal access size, which does vary
// (the 256 B Optane XPLine), is Config.AccessGranularity.
package mem

import (
	"fmt"

	"github.com/quartz-emu/quartz/internal/sim"
)

// LineShift is log2 of LineSize.
const LineShift = 6

// LineSize is the simulated cache line in bytes: the transfer unit of a
// controller and the tag granularity of every cache level and core.
const LineSize = 1 << LineShift

// AccessKind distinguishes the traffic classes a controller serves.
type AccessKind int

// Traffic classes.
const (
	Read      AccessKind = iota + 1 // demand load miss
	Write                           // demand store miss (line fill for write-allocate)
	Writeback                       // dirty line eviction; posted
	Prefetch                        // hardware prefetch fill; posted
)

func (k AccessKind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	case Writeback:
		return "writeback"
	case Prefetch:
		return "prefetch"
	default:
		return fmt.Sprintf("AccessKind(%d)", int(k))
	}
}

// RegisterMax is the largest programmable throttle value (12-bit register).
const RegisterMax = 4095

// Config describes one integrated memory controller.
type Config struct {
	// Channels is the number of independent DRAM channels.
	Channels int
	// ChannelBandwidth is the peak bandwidth of one channel in bytes per
	// second at full throttle.
	ChannelBandwidth float64
	// AccessGranularity is the device's internal access granularity in
	// bytes: every line transfer occupies a channel for this many bytes of
	// device bandwidth. Optane DC PMM reads and writes 256 B XPLines
	// internally (Empirical Guide §3), so each 64 B line costs 4x its size
	// in device occupancy. 0 defaults to LineSize (no amplification).
	AccessGranularity int
	// ThrottleFullScale is the register value at which the linear throttle
	// ramp reaches peak bandwidth. Values above it saturate (Fig. 8).
	ThrottleFullScale uint16
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Channels <= 0 {
		return fmt.Errorf("mem: Channels = %d, must be positive", c.Channels)
	}
	if c.ChannelBandwidth <= 0 {
		return fmt.Errorf("mem: ChannelBandwidth = %g, must be positive", c.ChannelBandwidth)
	}
	if c.AccessGranularity < 0 {
		return fmt.Errorf("mem: AccessGranularity = %d, must be non-negative", c.AccessGranularity)
	}
	if c.ThrottleFullScale == 0 || c.ThrottleFullScale > RegisterMax {
		return fmt.Errorf("mem: ThrottleFullScale = %d, must be in [1,%d]", c.ThrottleFullScale, RegisterMax)
	}
	return nil
}

// Stats aggregates controller traffic.
type Stats struct {
	Reads        int64
	Writes       int64
	Writebacks   int64
	Prefetches   int64
	BytesRead    int64
	BytesWritten int64
	// QueueTime is the total virtual time requests spent waiting for a
	// free channel slot.
	QueueTime sim.Time
}

// Controller is one socket's integrated memory controller. Read and write
// traffic have separate throttle registers: the paper (§2.1) describes the
// separate read/write thermal-control registers of the Intel datasheets —
// which would let an emulator model NVM's read/write bandwidth asymmetry —
// but found them non-functional on its testbeds. The simulated controller
// implements them as specified.
type Controller struct {
	cfg           Config
	throttleRead  uint16
	throttleWrite uint16
	nextFree      []sim.Time
	stats         Stats

	// occRead/occWrite cache the per-access channel occupancy (the token
	// bucket's drain per line) so Access does one lookup instead of a float
	// division; they are refilled whenever a throttle register is written.
	occRead, occWrite sim.Time
}

// NewController builds a controller with the given config. The throttle
// registers start at their maximum (no throttling).
func NewController(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:           cfg,
		throttleRead:  RegisterMax,
		throttleWrite: RegisterMax,
		nextFree:      make([]sim.Time, cfg.Channels),
	}
	c.refillRead()
	c.refillWrite()
	return c, nil
}

// granularityBytes is the per-transfer device occupancy in bytes: the
// device access granularity when configured (internal write/read
// amplification), the line size otherwise.
func (c *Controller) granularityBytes() float64 {
	if c.cfg.AccessGranularity > 0 {
		return float64(c.cfg.AccessGranularity)
	}
	return LineSize
}

// refillRead recomputes the cached read-path occupancy (the exact
// expression Access previously evaluated per request).
func (c *Controller) refillRead() {
	c.occRead = sim.Time(c.granularityBytes() / c.ChannelBandwidth() * float64(sim.Second))
}

// refillWrite recomputes the cached write-path occupancy.
func (c *Controller) refillWrite() {
	c.occWrite = sim.Time(c.granularityBytes() / c.ChannelWriteBandwidth() * float64(sim.Second))
}

// Stats returns a copy of the accumulated traffic statistics.
func (c *Controller) Stats() Stats { return c.stats }

// SetThrottle programs both thermal-control registers to the same value.
// Values above RegisterMax are rejected; this mirrors writing a 12-bit PCI
// register.
func (c *Controller) SetThrottle(v uint16) error {
	if err := c.SetReadThrottle(v); err != nil {
		return err
	}
	return c.SetWriteThrottle(v)
}

// SetReadThrottle programs the read-path thermal-control register.
func (c *Controller) SetReadThrottle(v uint16) error {
	if v > RegisterMax {
		return fmt.Errorf("mem: read throttle value %d exceeds 12-bit register (max %d)", v, RegisterMax)
	}
	c.throttleRead = v
	c.refillRead()
	return nil
}

// SetWriteThrottle programs the write-path thermal-control register.
func (c *Controller) SetWriteThrottle(v uint16) error {
	if v > RegisterMax {
		return fmt.Errorf("mem: write throttle value %d exceeds 12-bit register (max %d)", v, RegisterMax)
	}
	c.throttleWrite = v
	c.refillWrite()
	return nil
}

// Throttle reports the read-path thermal-control register value (the knob
// the symmetric SetThrottle programs).
func (c *Controller) Throttle() uint16 { return c.throttleRead }

// WriteThrottle reports the write-path thermal-control register value.
func (c *Controller) WriteThrottle() uint16 { return c.throttleWrite }

// bandwidthFor converts a throttle register value to one channel's
// effective bandwidth: linear up to ThrottleFullScale, then flat (Fig. 8).
func (c *Controller) bandwidthFor(reg uint16) float64 {
	if reg == 0 {
		reg = 1 // a zero register would stall the memory system entirely
	}
	frac := float64(reg) / float64(c.cfg.ThrottleFullScale)
	if frac > 1 {
		frac = 1
	}
	return c.cfg.ChannelBandwidth * frac
}

// ChannelBandwidth reports one channel's effective read bandwidth in bytes
// per second under the current throttle setting.
func (c *Controller) ChannelBandwidth() float64 {
	return c.bandwidthFor(c.throttleRead)
}

// ChannelWriteBandwidth reports one channel's effective write bandwidth.
func (c *Controller) ChannelWriteBandwidth() float64 {
	return c.bandwidthFor(c.throttleWrite)
}

// isWrite classifies traffic onto the write-throttle path.
func (k AccessKind) isWrite() bool { return k == Writeback }

// PeakBandwidth reports the controller's total unthrottled bandwidth in
// bytes per second.
func (c *Controller) PeakBandwidth() float64 {
	return c.cfg.ChannelBandwidth * float64(c.cfg.Channels)
}

// EffectiveBandwidth reports the controller's total bandwidth under the
// current throttle setting in bytes per second.
func (c *Controller) EffectiveBandwidth() float64 {
	return c.ChannelBandwidth() * float64(c.cfg.Channels)
}

// RegisterForBandwidth computes the throttle register value that caps total
// controller bandwidth closest to target (bytes per second).
func (c *Controller) RegisterForBandwidth(target float64) uint16 {
	peak := c.PeakBandwidth()
	if target >= peak {
		return RegisterMax
	}
	if target <= 0 {
		return 1
	}
	reg := target / peak * float64(c.cfg.ThrottleFullScale)
	if reg < 1 {
		reg = 1
	}
	return uint16(reg + 0.5)
}

// Access admits one line-sized request at virtual time now and returns the
// time at which its data is available. serviceLat is the device latency
// (row access plus interconnect) as seen by the requesting socket; queueing
// induced by channel occupancy is added on top. Posted traffic (writebacks,
// prefetch fills) still occupies channel slots but callers normally ignore
// the returned completion time.
//
// Throttle-induced queueing is part of the returned completion time, so it
// reaches the requesting thread as load/store latency — which is how the
// virtual-time profiler sees it: the simos memory operations charge the
// whole interval (device latency plus throttle stall) to vtprof.MemStall.
func (c *Controller) Access(now sim.Time, addr uintptr, kind AccessKind, serviceLat sim.Time) sim.Time {
	ch := int(addr>>LineShift) % c.cfg.Channels
	occupancy := c.occRead
	if kind.isWrite() {
		occupancy = c.occWrite
	}
	start := now
	if c.nextFree[ch] > start {
		start = c.nextFree[ch]
	}
	c.nextFree[ch] = start + occupancy
	c.stats.QueueTime += start - now

	switch kind {
	case Read:
		c.stats.Reads++
		c.stats.BytesRead += LineSize
	case Write:
		c.stats.Writes++
		c.stats.BytesRead += LineSize // write-allocate fills read the line first
	case Writeback:
		c.stats.Writebacks++
		c.stats.BytesWritten += LineSize
	case Prefetch:
		c.stats.Prefetches++
		c.stats.BytesRead += LineSize
	}
	return start + serviceLat
}
