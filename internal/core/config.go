// Package core implements Quartz itself: the epoch-based persistent-memory
// latency emulator of §2–§3. It attaches to a simulated process the way the
// real library attaches via LD_PRELOAD, programs the PMCs and the memory
// controllers' bandwidth throttles, runs a monitor thread that interrupts
// application threads at maximum-epoch boundaries with an epoch signal,
// hooks the simulated synchronization calls to propagate delays at
// inter-thread communication points, and injects model-derived delays by
// spinning on the timestamp counter.
//
// Epoch model: an epoch is the unit of delay accounting — it opens when the
// previous one closes, accumulates PMC deltas, and closes at a monitor
// signal, a sync-point hook, or an explicit request (no earlier than the
// minimum epoch, no later than the maximum). Closing an epoch reads the
// counters, evaluates Eq. 3 then Eq. 2, amortizes accumulated overhead and
// spins the thread forward. This close path is steady-state: it performs no
// heap allocations (fixed-cost terms are precomputed at attach time, and
// nothing on it formats strings), a contract pinned by the allocation gates
// run via `make bench-alloc` — see doc/performance.md.
package core

import (
	"fmt"
	"math"

	"github.com/quartz-emu/quartz/internal/obs"
	"github.com/quartz-emu/quartz/internal/perf"
	"github.com/quartz-emu/quartz/internal/sim"
)

// Model selects the analytic latency model.
type Model int

// Latency models.
const (
	// ModelStall is the paper's Eq. 2: delay proportional to memory stall
	// cycles, which naturally accounts for memory-level parallelism.
	ModelStall Model = iota + 1
	// ModelSimple is the paper's Eq. 1: delay proportional to the raw
	// count of memory references. It over-delays MLP-rich workloads and
	// exists as the ablation baseline for Fig. 2 / Fig. 11.
	ModelSimple
)

func (m Model) String() string {
	switch m {
	case ModelStall:
		return "stall (Eq. 2)"
	case ModelSimple:
		return "simple (Eq. 1)"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// Config parameterizes an emulation session.
type Config struct {
	// NVMLatency is the target emulated NVM read latency (average
	// application-perceived).
	NVMLatency sim.Time
	// DRAMLatency overrides the measured DRAM baseline latency; zero uses
	// the machine's calibrated value (local DRAM in single-memory mode,
	// remote DRAM in two-memory mode, since remote DRAM is the NVM
	// substrate there).
	DRAMLatency sim.Time
	// NVMBandwidth caps emulated NVM read bandwidth in bytes/sec via the
	// thermal-control registers; zero leaves bandwidth unthrottled.
	NVMBandwidth float64
	// NVMWriteBandwidth caps write bandwidth separately (NVM write
	// bandwidth is generally below read bandwidth, §2.1); zero follows
	// NVMBandwidth.
	NVMWriteBandwidth float64
	// WriteBandwidthByThreads, when non-empty, is the write-bandwidth
	// collapse curve of the asymmetric model (machine.NVMProfile): entry i
	// is the aggregate write-bandwidth target in bytes/sec with i+1
	// registered application threads; counts beyond the table clamp to the
	// last entry. Each thread registration reprograms the write throttle
	// through the same token-bucket path NVMWriteBandwidth uses, so write
	// bandwidth degrades as writer concurrency grows — the Empirical
	// Guide's Optane behavior. Empty leaves the throttle static.
	WriteBandwidthByThreads []float64
	// MaxEpoch is the static maximum epoch length enforced by the monitor
	// thread (default 10 ms, the paper's choice).
	MaxEpoch sim.Time
	// MinEpoch is the minimum epoch length below which synchronization
	// events do not close epochs (default 0.01 ms, the smallest setting
	// the paper evaluates and the most accurate for lock-heavy loads).
	MinEpoch sim.Time
	// MonitorInterval is the monitor thread's fixed wake-up period
	// (default MaxEpoch/2). Wake-ups and epoch completions may drift
	// apart, as the paper notes.
	MonitorInterval sim.Time
	// Model selects Eq. 2 (default) or the Eq. 1 ablation.
	Model Model
	// CounterMode selects rdpmc (default) or PAPI-style counter access.
	CounterMode perf.AccessMode
	// InjectionOff runs the "switched-off delay injection" mode of §3.2:
	// epochs are created and delays computed but not injected, exposing
	// the pure emulator overhead.
	InjectionOff bool
	// TwoMemory enables the DRAM+NVM virtual topology of §3.3: threads
	// must be bound to socket 0, PMalloc serves from socket 1 (remote
	// DRAM), and only remote-attributed stalls are delayed.
	TwoMemory bool
	// WriteLatency is the extra delay PFlush injects to emulate a slower
	// NVM write; zero defaults to NVMLatency - DRAMLatency.
	WriteLatency sim.Time
	// NVMWriteLatency is the target emulated NVM *store* latency of the
	// asymmetric read/write model (Koshiba et al., see doc/asymmetry.md).
	// When positive, the emulator additionally programs the store-side
	// counters and injects a count-based write-stall term
	// Δw = store_misses · (NVMWriteLatency − DRAM_lat) on the same epoch
	// boundaries as the read delay. Zero (the default) disables the store
	// model entirely: no store counters are read, the per-epoch counter
	// read cost is unchanged, and emulation is byte-identical to the
	// symmetric read-only model.
	NVMWriteLatency sim.Time
	// InitCycles models the library's initialization cost (§3.2 reports
	// ~5.5 billion cycles). Charged to the main thread before it runs.
	InitCycles int64
	// RegisterCycles models per-thread registration (§3.2: ~300,000).
	RegisterCycles int64
	// EpochLogicCycles is the epoch-processing cost beyond counter reads
	// (§3.2: roughly half of the ~4,000-cycle epoch cost is counter
	// reading; the rest is model arithmetic and bookkeeping).
	EpochLogicCycles int64
	// SpinPollCycles is the rdtscp polling granularity of the delay spin
	// loop.
	SpinPollCycles int64
	// DisableAmortization turns off the overhead carry-over discounting of
	// §3.2 (ablation knob).
	DisableAmortization bool
	// Observer receives the per-epoch ledger records, the throttle-register
	// writes and the aggregate metrics of this emulator (see internal/obs).
	// Nil disables observation; the disabled path costs one branch per
	// epoch.
	Observer *obs.Recorder
}

// Defaults for unset Config fields.
const (
	DefaultMaxEpoch         = 10 * sim.Millisecond
	DefaultMinEpoch         = 10 * sim.Microsecond
	DefaultInitCycles       = 5_500_000_000
	DefaultRegisterCycles   = 300_000
	DefaultEpochLogicCycles = 2_000
	DefaultSpinPollCycles   = 20
)

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.MaxEpoch <= 0 {
		c.MaxEpoch = DefaultMaxEpoch
	}
	if c.MinEpoch <= 0 {
		c.MinEpoch = DefaultMinEpoch
	}
	if c.MonitorInterval <= 0 {
		c.MonitorInterval = c.MaxEpoch / 2
	}
	if c.Model == 0 {
		c.Model = ModelStall
	}
	if c.CounterMode == 0 {
		c.CounterMode = perf.RDPMC
	}
	if c.InitCycles == 0 {
		c.InitCycles = DefaultInitCycles
	}
	if c.RegisterCycles == 0 {
		c.RegisterCycles = DefaultRegisterCycles
	}
	if c.EpochLogicCycles == 0 {
		c.EpochLogicCycles = DefaultEpochLogicCycles
	}
	if c.SpinPollCycles == 0 {
		c.SpinPollCycles = DefaultSpinPollCycles
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.NVMLatency < 0 {
		return fmt.Errorf("core: NVMLatency %v negative", c.NVMLatency)
	}
	if c.NVMWriteLatency < 0 {
		return fmt.Errorf("core: NVMWriteLatency %v negative", c.NVMWriteLatency)
	}
	if c.DRAMLatency < 0 {
		return fmt.Errorf("core: DRAMLatency %v negative", c.DRAMLatency)
	}
	if c.WriteLatency < 0 {
		return fmt.Errorf("core: WriteLatency %v negative", c.WriteLatency)
	}
	if c.MinEpoch > c.MaxEpoch {
		return fmt.Errorf("core: MinEpoch %v exceeds MaxEpoch %v", c.MinEpoch, c.MaxEpoch)
	}
	// !(bw >= 0) rejects NaN as well as negatives.
	if !(c.NVMBandwidth >= 0) || math.IsInf(c.NVMBandwidth, 1) {
		return fmt.Errorf("core: NVMBandwidth %g is not a finite number >= 0", c.NVMBandwidth)
	}
	if !(c.NVMWriteBandwidth >= 0) || math.IsInf(c.NVMWriteBandwidth, 1) {
		return fmt.Errorf("core: NVMWriteBandwidth %g is not a finite number >= 0", c.NVMWriteBandwidth)
	}
	for i, bw := range c.WriteBandwidthByThreads {
		if !(bw > 0) || math.IsInf(bw, 1) {
			return fmt.Errorf("core: WriteBandwidthByThreads[%d] = %g, must be positive", i, bw)
		}
	}
	return nil
}
