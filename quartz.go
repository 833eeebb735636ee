// Package quartz is the public API of the Quartz persistent-memory
// performance emulator reproduction (Volos et al., Middleware 2015).
//
// The emulator models the two performance characteristics of emerging
// byte-addressable NVM that dominate end-to-end application performance —
// latency and bandwidth — without modeling device internals. Bandwidth is
// emulated by programming the memory controller's thermal-control throttle
// registers; latency is emulated epoch-based: hardware performance counters
// supply memory stall cycles, an analytic model (Eqs. 1–4 of the paper)
// converts them to a required delay, and the delay is injected by spinning
// on the timestamp counter at epoch boundaries — including before lock
// releases, so delays propagate between threads.
//
// Because the original system requires hardware access unavailable to a Go
// process (rdpmc, PCI thermal registers, LD_PRELOAD), this reproduction
// runs applications on a deterministic simulated machine (NUMA sockets,
// cache hierarchy, DRAM channels, PMCs) that exposes exactly the interfaces
// the real emulator needs. See DESIGN.md for the substitution map.
//
// Quick start:
//
//	sys, err := quartz.NewSystem(quartz.IvyBridge, quartz.Config{
//		NVMLatency: quartz.Nanoseconds(500),
//	})
//	if err != nil { ... }
//	err = sys.Run(func(t *quartz.Thread) {
//		buf, _ := sys.PMalloc(1 << 20)
//		t.Load(buf) // served at emulated NVM speed
//	})
//	fmt.Println(sys.Stats().Suggestion())
package quartz

import (
	"fmt"

	"github.com/quartz-emu/quartz/internal/core"
	"github.com/quartz-emu/quartz/internal/machine"
	"github.com/quartz-emu/quartz/internal/mem"
	"github.com/quartz-emu/quartz/internal/obs"
	"github.com/quartz-emu/quartz/internal/perf"
	"github.com/quartz-emu/quartz/internal/sim"
	"github.com/quartz-emu/quartz/internal/simos"
)

// Re-exported core types. Aliases let downstream code use the engine types
// without importing internal packages.
type (
	// Time is simulated time (femtoseconds); see Nanoseconds.
	Time = sim.Time
	// Machine is an assembled simulated server.
	Machine = machine.Machine
	// MachineConfig customizes a machine beyond the presets.
	MachineConfig = machine.Config
	// Preset selects one of the paper's three Xeon testbeds.
	Preset = machine.Preset
	// Process is a simulated application process.
	Process = simos.Process
	// Thread is a simulated POSIX thread; workloads run on it.
	Thread = simos.Thread
	// Mutex is an interposable POSIX-style mutex.
	Mutex = simos.Mutex
	// Cond is an interposable POSIX-style condition variable.
	Cond = simos.Cond
	// Config parameterizes the emulator (latency target, bandwidth cap,
	// epochs, model selection, two-memory mode, ...).
	Config = core.Config
	// Emulator is an attached Quartz instance.
	Emulator = core.Emulator
	// Stats is the emulator's §3.2 statistics and feedback.
	Stats = core.Stats
	// Model selects the Eq. 2 stall model or the Eq. 1 ablation.
	Model = core.Model
	// Family is a processor generation (counter event file).
	Family = perf.Family
	// Recorder is the epoch-level observability sink: a per-epoch ledger,
	// an aggregated metrics registry, and a Chrome trace-event exporter. A
	// nil *Recorder is a valid no-op. See doc/observability.md.
	Recorder = obs.Recorder
	// EpochRecord is one closed epoch as recorded in the ledger.
	EpochRecord = obs.EpochRecord
)

// The paper's three dual-socket testbeds (§4.1).
const (
	// SandyBridge is the Intel Xeon E5-2450 testbed (97/163 ns).
	SandyBridge = machine.XeonE5_2450
	// IvyBridge is the Intel Xeon E5-2660 v2 testbed (87/176 ns).
	IvyBridge = machine.XeonE5_2660v2
	// Haswell is the Intel Xeon E5-2650 v3 testbed (120/175 ns).
	Haswell = machine.XeonE5_2650v3
)

// Latency model selectors.
const (
	// ModelStall is the paper's Eq. 2 (MLP-aware, default).
	ModelStall = core.ModelStall
	// ModelSimple is the naive Eq. 1 baseline.
	ModelSimple = core.ModelSimple
)

// LineSize is the simulated cache line in bytes: the unit loads, stores,
// flushes and the memory controllers move.
const LineSize = mem.LineSize

// Nanoseconds converts nanoseconds to simulated Time.
func Nanoseconds(ns float64) Time { return sim.FromNanos(ns) }

// Milliseconds converts milliseconds to simulated Time.
func Milliseconds(ms float64) Time { return sim.FromNanos(ms * 1e6) }

// NewMachine assembles one of the paper's testbeds.
func NewMachine(p Preset) (*Machine, error) { return machine.NewPreset(p) }

// NewCustomMachine assembles a machine from an explicit configuration.
func NewCustomMachine(cfg MachineConfig) (*Machine, error) { return machine.New(cfg) }

// PresetMachineConfig returns preset p's full configuration so callers can
// customize it (e.g. scale the cache hierarchy to a workload) before
// NewCustomMachine.
func PresetMachineConfig(p Preset) MachineConfig { return machine.PresetConfig(p) }

// System bundles machine + process + emulator for the common case.
type System struct {
	Machine  *Machine
	Process  *Process
	Emulator *Emulator
}

// NewSystem assembles a preset machine, a process bound to socket 0, and an
// attached emulator. For two-memory mode set cfg.TwoMemory; PMalloc then
// serves from the virtual-NVM socket.
func NewSystem(p Preset, cfg Config) (*System, error) {
	m, err := NewMachine(p)
	if err != nil {
		return nil, err
	}
	return newSystem(m, cfg)
}

// NewCustomSystem is NewSystem on a custom machine configuration.
func NewCustomSystem(mcfg MachineConfig, cfg Config) (*System, error) {
	m, err := NewCustomMachine(mcfg)
	if err != nil {
		return nil, err
	}
	return newSystem(m, cfg)
}

// newSystem creates the socket-0 process on m and attaches the emulator to
// it, exactly as loading the real library via LD_PRELOAD would: counters and
// throttle registers are programmed and the emulator's hooks are installed
// on the process's pthread entry points.
func newSystem(m *Machine, cfg Config) (*System, error) {
	opts := simos.DefaultOptions()
	opts.AllowedSockets = []int{0}
	opts.Lookahead = 2 * sim.Microsecond
	proc, err := simos.NewProcess(m, opts)
	if err != nil {
		return nil, err
	}
	emu, err := core.Attach(proc, cfg)
	if err != nil {
		return nil, err
	}
	return &System{Machine: m, Process: proc, Emulator: emu}, nil
}

// Run executes fn as the emulated process's main thread.
func (s *System) Run(fn func(*Thread)) error { return s.Emulator.Run(fn) }

// Malloc allocates volatile memory per process policy.
func (s *System) Malloc(size uintptr) (uintptr, error) { return s.Process.Malloc(size) }

// PMalloc allocates persistent memory through the emulator.
func (s *System) PMalloc(size uintptr) (uintptr, error) { return s.Emulator.PMalloc(size) }

// Stats returns the emulator's accumulated statistics (valid after Run).
func (s *System) Stats() Stats { return s.Emulator.Stats() }

// String describes the system.
func (s *System) String() string {
	return fmt.Sprintf("%s on %s", s.Emulator, s.Machine.Config().Name)
}

// LoadConfigFile reads a Config from an nvmemul.ini-style file, the
// configuration format of the original Quartz release. See core.ParseINI
// for the schema and doc/config.md for the key reference.
func LoadConfigFile(path string) (Config, error) { return core.LoadINIFile(path) }

// NewRecorder creates an observability recorder whose epoch ledger keeps at
// most ledgerLimit records (<= 0 selects the default limit). Attach it to an
// emulation via Config.Observer:
//
//	rec := quartz.NewRecorder(0)
//	sys, _ := quartz.NewSystem(quartz.IvyBridge, quartz.Config{
//		NVMLatency: quartz.Nanoseconds(500),
//		Observer:   rec,
//	})
//	_ = sys.Run(workload)
//	_ = rec.WriteChromeTrace(traceFile, rec.Ledger()) // epochs as Perfetto slices
//	_ = rec.WriteMetricsJSON(os.Stdout)               // aggregated counters
func NewRecorder(ledgerLimit int) *Recorder { return obs.New(ledgerLimit) }
