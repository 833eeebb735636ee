// Package simos is the simulated operating-system layer: processes whose
// threads execute on the simulated machine, POSIX-style mutexes, condition
// variables and signals (including EINTR semantics for interrupted
// "system calls"), a NUMA-aware allocator (malloc / numa_alloc_onnode), and
// a function-override table that mirrors the weak-symbol interposition the
// real Quartz performs via LD_PRELOAD.
package simos

import (
	"errors"
	"fmt"

	"github.com/quartz-emu/quartz/internal/machine"
	"github.com/quartz-emu/quartz/internal/obs"
	"github.com/quartz-emu/quartz/internal/obs/vtprof"
	"github.com/quartz-emu/quartz/internal/sim"
)

// ErrInterrupted is returned by interruptible blocking calls (Nanosleep)
// when a signal arrives mid-call — the EINTR behaviour §3.1 of the paper
// warns applications about.
var ErrInterrupted = errors.New("simos: interrupted system call (EINTR)")

// Options tunes a process's runtime costs and placement policy.
type Options struct {
	// Lookahead is the simulation kernel's lookahead quantum (see sim).
	Lookahead sim.Time
	// AllowedSockets restricts where threads may be placed; empty means
	// all sockets (numactl-style binding).
	AllowedSockets []int
	// DefaultNode is where Malloc allocates; -1 follows the first allowed
	// socket.
	DefaultNode int
	// ThreadCreateCycles is the cost of pthread_create.
	ThreadCreateCycles int64
	// MutexOpCycles is the cost of an uncontended lock/unlock.
	MutexOpCycles int64
	// MutexHandoffCycles is the wake-up cost transferring a contended lock.
	MutexHandoffCycles int64
	// SignalDeliveryCycles is the cost of delivering a POSIX signal.
	SignalDeliveryCycles int64
}

// DefaultOptions returns the standard runtime cost model.
func DefaultOptions() Options {
	return Options{
		Lookahead:            0,
		DefaultNode:          -1,
		ThreadCreateCycles:   25_000,
		MutexOpCycles:        60,
		MutexHandoffCycles:   2_500,
		SignalDeliveryCycles: 1_200,
	}
}

// Process is one simulated application: a set of threads sharing a machine,
// an address space, and a function table.
type Process struct {
	mach *machine.Machine
	kern *sim.Kernel
	opts Options

	table    FuncTable
	threads  []*Thread
	nextTID  int
	nextCore int

	handlers map[Signal]Handler
	heap     []uintptr        // per-node bump pointers
	rec      *obs.Recorder    // nil-safe observability sink
	prof     *vtprof.Profiler // nil-safe virtual-time profiler

	started bool
}

// NewProcess creates a process on mach.
func NewProcess(mach *machine.Machine, opts Options) (*Process, error) {
	if mach == nil {
		return nil, errors.New("simos: nil machine")
	}
	nSockets := len(mach.Sockets())
	for _, s := range opts.AllowedSockets {
		if s < 0 || s >= nSockets {
			return nil, fmt.Errorf("simos: allowed socket %d out of range [0,%d)", s, nSockets)
		}
	}
	if opts.DefaultNode >= nSockets {
		return nil, fmt.Errorf("simos: default node %d out of range [0,%d)", opts.DefaultNode, nSockets)
	}
	p := &Process{
		mach:     mach,
		kern:     sim.NewKernel(opts.Lookahead),
		opts:     opts,
		handlers: make(map[Signal]Handler),
		heap:     make([]uintptr, nSockets),
	}
	p.table = defaultFuncTable()
	return p, nil
}

// Machine reports the process's machine.
func (p *Process) Machine() *machine.Machine { return p.mach }

// Kernel exposes the simulation kernel (for advanced harness use).
func (p *Process) Kernel() *sim.Kernel { return p.kern }

// Options reports the process options.
func (p *Process) Options() Options { return p.opts }

// Table returns a pointer to the process's function table so that an
// emulator library can interpose on its entries before the process runs
// (the LD_PRELOAD-equivalent hook point).
func (p *Process) Table() *FuncTable { return &p.table }

// allowedSockets resolves the effective socket binding.
func (p *Process) allowedSockets() []int {
	if len(p.opts.AllowedSockets) > 0 {
		return p.opts.AllowedSockets
	}
	all := make([]int, len(p.mach.Sockets()))
	for i := range all {
		all[i] = i
	}
	return all
}

// defaultNode resolves the node Malloc uses.
func (p *Process) defaultNode() int {
	if p.opts.DefaultNode >= 0 {
		return p.opts.DefaultNode
	}
	return p.allowedSockets()[0]
}

// Run spawns the main thread executing fn and drives the simulation to
// completion. It returns the first fatal error (thread panic, deadlock).
func (p *Process) Run(fn ThreadFunc) error {
	if p.started {
		return errors.New("simos: process already ran")
	}
	p.started = true
	if _, err := p.newThread(nil, "main", fn, -1, 0); err != nil {
		return err
	}
	err := p.kern.Run()
	if p.prof != nil {
		// Threads fold their series in finish(); an aborted run leaves some
		// unfolded, so sweep them here (Fold is idempotent).
		for _, t := range p.threads {
			t.vt.Fold(t.coro.Clock())
		}
	}
	p.rec.KernelRun(p.kern.Stats())
	if err != nil {
		return fmt.Errorf("simos: %w", err)
	}
	return nil
}

// SetRecorder installs an observability recorder; sync primitives count
// contended waits against it and Run folds in the kernel's scheduler
// statistics. A nil recorder (the default) records nothing.
func (p *Process) SetRecorder(r *obs.Recorder) { p.rec = r }

// SetProfiler installs a virtual-time profiler before the process runs:
// every thread created from then on carries a vtprof series, the simos
// operations charge their time categories against it, and threads fold into
// the profiler as they exit. A nil profiler (the default) leaves every
// charge site a single pointer test and the simulation byte-identical.
func (p *Process) SetProfiler(prof *vtprof.Profiler) { p.prof = prof }

// EndTime reports the virtual time at which the last thread finished. Valid
// after Run returns.
func (p *Process) EndTime() sim.Time { return p.kern.Now() }

// RegisterHandler installs a process-wide signal handler (sigaction).
func (p *Process) RegisterHandler(s Signal, h Handler) {
	p.handlers[s] = h
}

// pickCore assigns the next core, round-robin over the allowed sockets'
// cores. Oversubscription is allowed: a blocked thread sharing a core with
// a runnable one costs nothing in this model (no preemption contention).
func (p *Process) pickCore(socket int) int {
	allowed := p.allowedSockets()
	if socket >= 0 {
		allowed = []int{socket}
	}
	cps := p.mach.Config().CoresPerSocket
	slot := p.nextCore
	p.nextCore++
	s := allowed[slot%len(allowed)]
	idx := (slot / len(allowed)) % cps
	return s*cps + idx
}

// newThread creates a thread bound to a core. socket pins the thread to a
// socket (-1 follows policy); startDelay defers its first instruction.
func (p *Process) newThread(parent *Thread, name string, fn ThreadFunc, socket int, startDelay sim.Time) (*Thread, error) {
	if fn == nil {
		return nil, errors.New("simos: nil thread function")
	}
	coreID := p.pickCore(socket)
	t := &Thread{
		proc: p,
		tid:  p.nextTID,
		name: name,
		core: p.mach.Core(coreID),
	}
	p.nextTID++
	p.threads = append(p.threads, t)

	body := func(c *sim.Coro) {
		t.coro = c
		fn(t)
		t.finish()
	}
	// Spawning directly on the kernel serves both the pre-run path (main
	// thread) and in-run creation; kernel structures are only touched from
	// simulation context, so this is race-free.
	var at sim.Time
	if parent != nil {
		at = parent.coro.Clock() + startDelay
	}
	t.vt = p.prof.NewThread(name, at)
	t.coro = p.kern.Spawn(name, at, body)
	return t, nil
}
