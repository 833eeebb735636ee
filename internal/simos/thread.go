package simos

import (
	"fmt"

	"github.com/quartz-emu/quartz/internal/cpu"
	"github.com/quartz-emu/quartz/internal/obs/vtprof"
	"github.com/quartz-emu/quartz/internal/sim"
)

// ThreadFunc is a simulated thread body.
type ThreadFunc func(*Thread)

// Thread is one simulated POSIX thread bound to a core.
type Thread struct {
	proc *Process
	coro *sim.Coro
	core *cpu.Core
	tid  int
	name string

	signalPending bool // an epoch signal awaits delivery
	inHandler     bool
	done          bool
	endClock      sim.Time
	joiners       []*Thread

	// vt is the thread's virtual-time profiler series; nil (the default)
	// keeps every charge a single pointer test. See Process.SetProfiler.
	vt *vtprof.ThreadSeries
}

// TID reports the thread id.
func (t *Thread) TID() int { return t.tid }

// Name reports the thread's diagnostic name.
func (t *Thread) Name() string { return t.name }

// Process reports the owning process.
func (t *Thread) Process() *Process { return t.proc }

// Core reports the core the thread is bound to.
func (t *Thread) Core() *cpu.Core { return t.core }

// Now reports the thread's local virtual time (CLOCK_MONOTONIC).
func (t *Thread) Now() sim.Time { return t.coro.Clock() }

// SettledNow runs the Settle hook, which closes the thread's open epoch and
// injects its delay, then reports Now. A clock read that ends a measured
// window uses it, so the trailing epoch's delay lands inside the window;
// without a Settle hook it equals Now.
func (t *Thread) SettledNow() sim.Time {
	if h := t.proc.hooks.Settle; h != nil {
		h(t)
	}
	return t.Now()
}

// Done reports whether the thread body has returned.
func (t *Thread) Done() bool { return t.done }

// Failf aborts the simulation with an error attributed to this thread.
func (t *Thread) Failf(format string, args ...any) {
	t.coro.Failf(format, args...)
}

// PushPhase enters an interned profiling phase (vtprof.Intern) on this
// thread's phase stack. With no profiler attached it is a no-op costing one
// branch; with one attached it is allocation-free in the steady state. Time
// is attributed to the phase stack in effect when each interval is charged,
// so a push takes effect from the thread's next time-advancing operation.
func (t *Thread) PushPhase(p vtprof.Phase) {
	if t.vt != nil {
		t.vt.Push(p)
	}
}

// PopPhase leaves the current profiling phase.
func (t *Thread) PopPhase() {
	if t.vt != nil {
		t.vt.Pop()
	}
}

// vtCharge attributes virtual time elapsed since the last charge to cat.
func (t *Thread) vtCharge(cat vtprof.Category) {
	if t.vt != nil {
		t.vt.Charge(cat, t.coro.Clock())
	}
}

// AccountInjected attributes an epoch's injected delay (the interval since
// the last charge) to the inject categories, split read/write by the
// epoch's writeDelay share of totalDelay; internal/core calls it right
// after the injection spin. With no profiler attached it is a no-op.
func (t *Thread) AccountInjected(injected, writeDelay, totalDelay sim.Time) {
	if t.vt != nil {
		t.vt.ChargeInjected(t.coro.Clock(), injected, writeDelay, totalDelay)
	}
}

// finish runs after the thread body returns: it wakes joiners and folds the
// thread's profiler series into the job profile.
func (t *Thread) finish() {
	t.done = true
	t.endClock = t.coro.Clock()
	if t.vt != nil {
		t.vt.Fold(t.endClock)
	}
	t.coro.Strict()
	for _, j := range t.joiners {
		t.coro.Unblock(j.coro, t.endClock+t.proc.cyc(t.proc.opts.MutexHandoffCycles, t))
	}
	t.joiners = nil
}

// cyc converts a cycle count to time at th's core frequency.
func (p *Process) cyc(cycles int64, th *Thread) sim.Time {
	return sim.CyclesToTime(cycles, th.core.FreqHz())
}

// Compute advances the thread by n core cycles of pure computation.
func (t *Thread) Compute(n int64) {
	t.checkSignals()
	if n <= 0 {
		return
	}
	t.coro.Sync()
	t.coro.Advance(t.core.ComputeTime(t.coro.Clock(), n))
	t.vtCharge(vtprof.Compute)
}

// ComputeFor advances the thread by a wall-clock duration of computation.
func (t *Thread) ComputeFor(d sim.Time) {
	t.checkSignals()
	if d > 0 {
		t.coro.Sync()
		t.coro.Advance(d)
		t.vtCharge(vtprof.Compute)
	}
}

// Load performs one demand load from the simulated address.
func (t *Thread) Load(addr uintptr) {
	t.checkSignals()
	t.coro.Sync()
	lat, _ := t.core.Load(t.coro.Clock(), addr)
	t.coro.Advance(lat)
	t.vtCharge(vtprof.MemStall)
}

// Warm hints that the thread will load addr soon, so the host can fetch
// the simulator state that load will probe (cpu.Core.Warm). It is not a
// simulated operation: it checks no signal, does not synchronize, advances
// no virtual time and charges no profiler category, so the simulated
// timeline and thread interleaving are the same with or without it.
func (t *Thread) Warm(addr uintptr) { t.core.Warm(addr) }

// LoadGroup performs independent loads in parallel (memory-level
// parallelism), advancing by the overlapped completion time.
func (t *Thread) LoadGroup(addrs []uintptr) {
	t.checkSignals()
	if len(addrs) == 0 {
		return
	}
	t.coro.Sync()
	t.coro.Advance(t.core.LoadGroup(t.coro.Clock(), addrs))
	t.vtCharge(vtprof.MemStall)
}

// LoadRun performs n dependent demand loads at addr, addr+stride, … — the
// common strided-scan loop, batched into one call. Each access performs the
// same signal check and synchronization yield an individual Load would, so
// thread interleaving (and the simulated timeline) is identical to the
// unrolled loop.
func (t *Thread) LoadRun(addr, stride uintptr, n int) {
	for ; n > 0; n-- {
		t.checkSignals()
		t.coro.Sync()
		lat, _ := t.core.Load(t.coro.Clock(), addr)
		t.coro.Advance(lat)
		addr += stride
	}
	// One charge covers the whole batch: any epoch closed mid-run by
	// checkSignals charged (and re-watermarked) its own interval already.
	t.vtCharge(vtprof.MemStall)
}

// StoreRun performs n posted stores at addr, addr+stride, …, each with the
// per-access bookkeeping an individual Store would perform.
func (t *Thread) StoreRun(addr, stride uintptr, n int) {
	for ; n > 0; n-- {
		t.checkSignals()
		t.coro.Sync()
		t.coro.Advance(t.core.Store(t.coro.Clock(), addr))
		addr += stride
	}
	t.vtCharge(vtprof.MemStall)
}

// LoadGroupRun is LoadGroup over the arithmetic address sequence addr,
// addr+stride, …, addr+(n-1)*stride, sparing streaming callers the
// address-slice rebuild on every batch.
func (t *Thread) LoadGroupRun(addr, stride uintptr, n int) {
	t.checkSignals()
	if n <= 0 {
		return
	}
	t.coro.Sync()
	t.coro.Advance(t.core.LoadGroupRun(t.coro.Clock(), addr, stride, n))
	t.vtCharge(vtprof.MemStall)
}

// Store performs one posted store to the simulated address.
func (t *Thread) Store(addr uintptr) {
	t.checkSignals()
	t.coro.Sync()
	t.coro.Advance(t.core.Store(t.coro.Clock(), addr))
	t.vtCharge(vtprof.MemStall)
}

// Flush writes back and invalidates the cache line holding addr (clflush),
// stalling until the writeback reaches memory — the clflush ordering
// guarantee persistent-memory software relies on.
func (t *Thread) Flush(addr uintptr) {
	t.checkSignals()
	t.coro.Sync()
	lat, wbDone := t.core.Flush(t.coro.Clock(), addr)
	t.coro.Advance(lat)
	if wbDone > t.coro.Clock() {
		t.coro.AdvanceTo(wbDone)
	}
	t.vtCharge(vtprof.MemStall)
}

// FlushOpt writes back and invalidates the line without stalling for the
// writeback (clflushopt); it returns the virtual time the writeback will
// complete so a commit barrier (pcommit) can account for it.
func (t *Thread) FlushOpt(addr uintptr) sim.Time {
	t.checkSignals()
	t.coro.Sync()
	lat, wbDone := t.core.Flush(t.coro.Clock(), addr)
	t.coro.Advance(lat)
	t.vtCharge(vtprof.MemStall)
	return wbDone
}

// Fence stalls until the given completion time (sfence/pcommit wait).
func (t *Thread) Fence(until sim.Time) {
	t.checkSignals()
	t.coro.AdvanceTo(until)
	t.vtCharge(vtprof.MemStall)
}

// SpinUntilTSC spins (as Quartz's delay injection does) until the timestamp
// counter reaches target, polling every pollCycles. It charges no profiler
// category itself: the emulator's injection path accounts the spin via
// AccountInjected, and any other caller's spin folds into that thread's
// next charged interval.
//
// The modeled spin's only observable effect is its final clock: the start
// clock plus the smallest whole number of polls whose TSC reaches target.
// TSC is monotone in the clock, so that poll count is found by galloping
// plus binary search with the same comparator the poll-by-poll loop used —
// identical final clock, and a delay injection of thousands of polls costs
// a dozen comparisons instead.
func (t *Thread) SpinUntilTSC(target uint64, pollCycles int64) {
	if pollCycles <= 0 {
		pollCycles = 20
	}
	step := t.core.TimeForCycles(pollCycles)
	start := t.coro.Clock()
	if t.core.TSC(start) >= target {
		return
	}
	if step <= 0 {
		t.Failf("simos: TSC spin cannot make progress (poll step %v)", step)
	}
	hi := sim.Time(1)
	for t.core.TSC(start+hi*step) < target {
		hi *= 2
	}
	lo := hi / 2 // below lo+1 polls the TSC is still short of target
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		if t.core.TSC(start+mid*step) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	t.coro.Advance(hi * step)
}

// Nanosleep blocks for d of virtual time. If a signal arrives during the
// sleep the call wakes early, runs the handler, and returns ErrInterrupted
// (EINTR) — applications must retry, per §3.1.
func (t *Thread) Nanosleep(d sim.Time) error {
	t.checkSignals()
	deadline := t.coro.Clock() + d
	woke := t.coro.SleepUntil(deadline)
	t.vtCharge(vtprof.SyncWait)
	if t.signalPending {
		t.checkSignals()
		if woke < deadline {
			return fmt.Errorf("simos: nanosleep: %w", ErrInterrupted)
		}
	}
	return nil
}

// YieldStrict synchronizes the thread with global virtual time; used before
// operations whose cross-thread ordering must be exact.
func (t *Thread) YieldStrict() { t.coro.Strict() }

// CreateThread creates a new thread running fn (pthread_create). The new
// thread runs the ThreadStarted hook before fn.
func (t *Thread) CreateThread(name string, fn ThreadFunc) (*Thread, error) {
	return t.CreateThreadOn(-1, name, fn)
}

// CreateThreadOn is CreateThread pinned to a socket; -1 follows the process
// policy.
func (t *Thread) CreateThreadOn(socket int, name string, fn ThreadFunc) (*Thread, error) {
	t.Compute(t.proc.opts.ThreadCreateCycles)
	t.coro.Strict()
	return t.proc.newThread(t, name, fn, socket)
}

// Join blocks until other's body has returned.
func (t *Thread) Join(other *Thread) {
	t.checkSignals()
	t.coro.Strict()
	if other.done {
		t.coro.AdvanceTo(other.endClock)
		t.vtCharge(vtprof.SyncWait)
		return
	}
	other.joiners = append(other.joiners, t)
	t.coro.Block()
	t.vtCharge(vtprof.SyncWait)
	t.checkSignals()
}

// Kill sends the epoch signal to target and wakes it if it is sleeping
// (pthread_kill). The OnEpochSignal hook runs at the target's next
// interruption point. Like a standard (non-realtime) POSIX signal, a Kill
// while one is already pending coalesces with it.
func (t *Thread) Kill(target *Thread) {
	t.coro.Strict()
	if target.done || target.signalPending {
		return
	}
	target.signalPending = true
	t.coro.Interrupt(target.coro, t.coro.Clock()+t.proc.cyc(t.proc.opts.SignalDeliveryCycles, target))
}

// checkSignals delivers a pending epoch signal by running the OnEpochSignal
// hook inline in this thread's context. Nested delivery is suppressed while
// the hook runs; a Kill that arrives meanwhile is delivered once it returns.
func (t *Thread) checkSignals() {
	if t.inHandler {
		return
	}
	for t.signalPending {
		t.signalPending = false
		h := t.proc.hooks.OnEpochSignal
		if h == nil {
			continue // default disposition: ignore
		}
		t.inHandler = true
		t.coro.Advance(t.proc.cyc(t.proc.opts.SignalDeliveryCycles, t))
		t.vtCharge(vtprof.SchedWait)
		h(t)
		t.inHandler = false
	}
}
