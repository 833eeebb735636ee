// Package simos is the simulated operating-system layer: processes whose
// threads execute on the simulated machine, POSIX-style mutexes, condition
// variables and the emulator's epoch signal (including EINTR semantics for
// interrupted "system calls"), a NUMA-aware allocator (malloc /
// numa_alloc_onnode), and one hook set that stands in for the weak-symbol
// interposition the real Quartz performs via LD_PRELOAD.
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

// Hooks are the callbacks an emulator library installs on a process. The
// real Quartz overrides the weak pthread symbols with same-name functions
// loaded first via LD_PRELOAD, which do their bookkeeping and then call the
// original (§3.1), and its monitor interrupts a thread whose epoch ran too
// long with a POSIX signal. Each hook is optional; a nil hook costs one
// pointer test.
type Hooks struct {
	// ThreadStarted runs in every thread made by CreateThread or
	// CreateThreadOn, before its body: the "new threads call back into the
	// library and register themselves with the monitor" step (Fig. 5,
	// step 1). The main thread does not run it.
	ThreadStarted func(*Thread)
	// BeforeSync runs first in every synchronization entry point: Mutex
	// Lock/Unlock (including the release inside Cond.Wait), Cond
	// Signal/Broadcast, RWMutex RLock/Lock/Unlock and Barrier.Wait. §2.3
	// closes epochs there, so delay accrued before the event is injected
	// before the event becomes visible to other threads.
	BeforeSync func(*Thread)
	// OnEpochSignal handles the epoch signal Kill sends (SIGUSR1 in the
	// real implementation). It runs in the interrupted thread's context,
	// like a POSIX handler on the target thread's stack.
	OnEpochSignal func(*Thread)
	// Settle runs in Thread.SettledNow before the clock is read: it closes
	// the thread's open epoch, so the delay that epoch accrued is injected
	// before a measured window ends.
	Settle func(*Thread)
}

// Process is one simulated application: a set of threads sharing a machine
// and an address space.
type Process struct {
	mach *machine.Machine
	kern *sim.Kernel
	opts Options

	hooks    Hooks
	threads  []*Thread
	nextTID  int
	nextCore int

	heap []uintptr        // per-node bump pointers
	rec  *obs.Recorder    // nil-safe observability sink
	prof *vtprof.Profiler // nil-safe virtual-time profiler

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
	return &Process{
		mach: mach,
		kern: sim.NewKernel(opts.Lookahead),
		opts: opts,
		heap: make([]uintptr, nSockets),
	}, nil
}

// Machine reports the process's machine.
func (p *Process) Machine() *machine.Machine { return p.mach }

// Kernel exposes the simulation kernel (for advanced harness use).
func (p *Process) Kernel() *sim.Kernel { return p.kern }

// Options reports the process options.
func (p *Process) Options() Options { return p.opts }

// SetHooks installs an emulator's hooks before the process runs (the
// LD_PRELOAD-equivalent attach point).
func (p *Process) SetHooks(h Hooks) { p.hooks = h }

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
	if _, err := p.newThread(nil, "main", fn, -1); err != nil {
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
// socket (-1 follows policy). A thread with a parent runs the ThreadStarted
// hook before its body.
func (p *Process) newThread(parent *Thread, name string, fn ThreadFunc, socket int) (*Thread, error) {
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
		if h := p.hooks.ThreadStarted; h != nil && parent != nil {
			h(t)
		}
		fn(t)
		t.finish()
	}
	// Spawning directly on the kernel serves both the pre-run path (main
	// thread) and in-run creation; kernel structures are only touched from
	// simulation context, so this is race-free.
	var at sim.Time
	if parent != nil {
		at = parent.coro.Clock()
	}
	t.vt = p.prof.NewThread(name, at)
	t.coro = p.kern.Spawn(name, at, body)
	return t, nil
}
