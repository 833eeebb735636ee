package simos

import (
	"github.com/quartz-emu/quartz/internal/obs/vtprof"
)

// beforeSync runs the BeforeSync hook, the point where Quartz closes epochs
// at inter-thread communication events (§2.3).
func (t *Thread) beforeSync() {
	if h := t.proc.hooks.BeforeSync; h != nil {
		h(t)
	}
}

// Mutex is a POSIX-style mutex with FIFO handoff. Lock and Unlock run the
// process's BeforeSync hook first.
type Mutex struct {
	proc    *Process
	name    string
	owner   *Thread
	waiters []*Thread
}

// NewMutex creates a mutex (pthread_mutex_init).
func (p *Process) NewMutex(name string) *Mutex {
	return &Mutex{proc: p, name: name}
}

// Name reports the mutex's diagnostic name.
func (m *Mutex) Name() string { return m.name }

// Lock acquires the mutex, blocking in FIFO order if it is held. Like a
// futex-based pthread mutex, a woken waiter competes for the lock rather
// than receiving it by handoff, and pending signal handlers run between
// wake-up and re-acquisition — so an emulator's delay injection on a
// waiting thread happens while the thread does NOT hold the lock, exactly as
// on real hardware.
func (m *Mutex) Lock(t *Thread) {
	t.beforeSync()
	t.checkSignals()
	t.coro.Strict()
	t.coro.Advance(t.proc.cyc(t.proc.opts.MutexOpCycles, t))
	if m.owner == t {
		t.Failf("mutex %q: recursive lock", m.name)
	}
	for m.owner != nil {
		t.proc.rec.ContendedWait()
		m.waiters = append(m.waiters, t)
		t.coro.Block()
		t.vtCharge(vtprof.SyncWait)
		// Handlers (e.g. epoch delay injection) run before the retry.
		t.checkSignals()
		t.coro.Strict()
	}
	m.owner = t
}

// Unlock releases the mutex, handing it to the oldest waiter if any. It is
// the lock-release event the Quartz prototype interposes on to propagate
// delays (§2.3).
func (m *Mutex) Unlock(t *Thread) {
	t.beforeSync()
	t.checkSignals()
	t.coro.Strict()
	if m.owner != t {
		t.Failf("mutex %q: unlock by non-owner %q", m.name, t.name)
	}
	t.coro.Advance(t.proc.cyc(t.proc.opts.MutexOpCycles, t))
	m.owner = nil
	if len(m.waiters) == 0 {
		return
	}
	next := m.waiters[0]
	m.waiters = m.waiters[1:]
	t.coro.Unblock(next.coro, t.coro.Clock()+t.proc.cyc(t.proc.opts.MutexHandoffCycles, next))
}

// Cond is a POSIX-style condition variable.
type Cond struct {
	proc    *Process
	name    string
	waiters []*Thread
}

// NewCond creates a condition variable (pthread_cond_init).
func (p *Process) NewCond(name string) *Cond {
	return &Cond{proc: p, name: name}
}

// Name reports the condvar's diagnostic name.
func (c *Cond) Name() string { return c.name }

// Wait atomically releases m and blocks until signalled, then re-acquires m
// before returning (pthread_cond_wait).
func (c *Cond) Wait(t *Thread, m *Mutex) {
	t.checkSignals()
	t.coro.Strict()
	if m.owner != t {
		t.Failf("cond %q: wait without holding mutex %q", c.name, m.name)
	}
	c.waiters = append(c.waiters, t)
	// Release through Unlock so an attached emulator sees the unlock — the
	// inter-thread communication event it must inject delay before.
	m.Unlock(t)
	t.coro.Block()
	t.vtCharge(vtprof.SyncWait)
	t.checkSignals()
	m.Lock(t)
}

// Signal wakes the oldest waiter, if any (pthread_cond_signal).
func (c *Cond) Signal(t *Thread) {
	t.beforeSync()
	t.checkSignals()
	t.coro.Strict()
	t.coro.Advance(t.proc.cyc(t.proc.opts.MutexOpCycles, t))
	if len(c.waiters) == 0 {
		return
	}
	next := c.waiters[0]
	c.waiters = c.waiters[1:]
	t.coro.Unblock(next.coro, t.coro.Clock()+t.proc.cyc(t.proc.opts.MutexHandoffCycles, next))
}

// Broadcast wakes all waiters (pthread_cond_broadcast).
func (c *Cond) Broadcast(t *Thread) {
	t.beforeSync()
	t.checkSignals()
	t.coro.Strict()
	t.coro.Advance(t.proc.cyc(t.proc.opts.MutexOpCycles, t))
	for _, w := range c.waiters {
		t.coro.Unblock(w.coro, t.coro.Clock()+t.proc.cyc(t.proc.opts.MutexHandoffCycles, w))
	}
	c.waiters = nil
}
