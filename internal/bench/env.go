// Package bench implements the paper's evaluation workloads — MemLat (§4.4),
// the Multi-Threaded benchmark (§4.5), MultiLat (§4.6), and the STREAM copy
// kernel (§4.2) — together with the validation environments of §4.3:
//
//   - Conf_1: computation and memory on socket 0, with Quartz emulating a
//     higher latency in software;
//   - Conf_2: computation on socket 0 with memory physically bound to the
//     remote socket via numactl, giving physically slower memory.
//
// Comparing completion times across the two configurations yields the
// emulation error reported throughout §4.
package bench

import (
	"fmt"

	"github.com/quartz-emu/quartz/internal/core"
	"github.com/quartz-emu/quartz/internal/machine"
	"github.com/quartz-emu/quartz/internal/obs/vtprof"
	"github.com/quartz-emu/quartz/internal/sim"
	"github.com/quartz-emu/quartz/internal/simos"
)

// Mode selects how an environment runs a workload.
type Mode int

// Environment modes.
const (
	// Native runs on local DRAM without emulation ("no emulation"
	// baselines).
	Native Mode = iota + 1
	// PhysicalRemote binds workload memory to the remote socket without
	// emulation — the paper's Conf_2 ground truth.
	PhysicalRemote
	// Emulated runs on local DRAM under Quartz — the paper's Conf_1.
	Emulated
)

func (m Mode) String() string {
	switch m {
	case Native:
		return "native"
	case PhysicalRemote:
		return "physical-remote (Conf_2)"
	case Emulated:
		return "emulated (Conf_1)"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// EnvConfig describes a validation environment.
type EnvConfig struct {
	Preset machine.Preset
	// Machine, when non-nil, overrides the preset with a custom machine
	// configuration (e.g. the scaled testbed used for application
	// experiments, which shrinks the L3 to preserve the paper's
	// working-set-to-cache ratio at tractable simulation sizes).
	Machine *machine.Config
	Mode    Mode
	// Quartz configures the emulator in Emulated mode.
	Quartz core.Config
	// Lookahead tunes simulation speed for multithreaded workloads.
	Lookahead sim.Time
	// Profiler, when non-nil, attaches a virtual-time profiler to the
	// process: every thread's simulated time is attributed by (phase stack,
	// category) and folded into it. A job's paired units may share one
	// profiler; the fold is commutative. Nil (the default) is inert.
	Profiler *vtprof.Profiler
}

// Env is one assembled machine + process (+ optional emulator).
type Env struct {
	Mach *machine.Machine
	Proc *simos.Process
	Emu  *core.Emulator // nil unless Mode == Emulated
	Mode Mode
}

// NewEnv assembles a fresh machine and process for one trial. Building a new
// environment per trial gives cold caches, matching the paper's practice of
// invalidating caches between runs.
func NewEnv(cfg EnvConfig) (*Env, error) {
	var mach *machine.Machine
	var err error
	if cfg.Machine != nil {
		mach, err = machine.New(*cfg.Machine)
	} else {
		mach, err = machine.NewPreset(cfg.Preset)
	}
	if err != nil {
		return nil, err
	}
	opts := simos.DefaultOptions()
	opts.Lookahead = cfg.Lookahead
	opts.AllowedSockets = []int{0} // computation always on socket 0 (§4.3)
	switch cfg.Mode {
	case PhysicalRemote:
		opts.DefaultNode = 1 // numactl --membind to the remote socket
	default:
		opts.DefaultNode = 0
	}
	proc, err := simos.NewProcess(mach, opts)
	if err != nil {
		return nil, err
	}
	if cfg.Profiler != nil {
		proc.SetProfiler(cfg.Profiler)
	}
	env := &Env{Mach: mach, Proc: proc, Mode: cfg.Mode}
	if cfg.Mode == Emulated {
		emu, err := core.Attach(proc, cfg.Quartz)
		if err != nil {
			return nil, err
		}
		env.Emu = emu
	}
	return env, nil
}

// Run executes fn as the environment's main thread, under the emulator when
// one is attached.
func (e *Env) Run(fn func(*Env, *simos.Thread)) error {
	body := func(t *simos.Thread) { fn(e, t) }
	if e.Emu != nil {
		return e.Emu.Run(body)
	}
	return e.Proc.Run(body)
}

// CloseEpoch is t.SettledNow without its value: it closes t's open epoch.
// cmd/quartzperf still calls it; new code calls SettledNow.
func (e *Env) CloseEpoch(t *simos.Thread) { t.SettledNow() }

// AllocNode reports the NUMA node workload data should live on in this mode.
func (e *Env) AllocNode() int {
	if e.Mode == PhysicalRemote {
		return 1
	}
	return 0
}

// RemoteLatNS is a convenience for configuring Quartz to emulate exactly the
// machine's remote-DRAM latency, the §4 validation target.
func RemoteLatNS(p machine.Preset) float64 {
	return machine.PresetConfig(p).RemoteLat.Nanoseconds()
}
