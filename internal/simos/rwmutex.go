package simos

import (
	"github.com/quartz-emu/quartz/internal/obs/vtprof"
)

// RWMutex is a POSIX-style reader-writer lock (pthread_rwlock) with writer
// preference. Every acquisition and release runs the BeforeSync hook first,
// so an emulator can close epochs before a release becomes visible — readers
// and writers alike propagate accumulated delay to threads they unblock.
type RWMutex struct {
	proc     *Process
	name     string
	writer   *Thread
	readers  int
	waitersW []*Thread
	waitersR []*Thread
}

// NewRWMutex creates a reader-writer lock (pthread_rwlock_init).
func (p *Process) NewRWMutex(name string) *RWMutex {
	return &RWMutex{proc: p, name: name}
}

// Name reports the lock's diagnostic name.
func (m *RWMutex) Name() string { return m.name }

// RLock acquires the lock shared (pthread_rwlock_rdlock).
func (m *RWMutex) RLock(t *Thread) {
	t.beforeSync()
	t.checkSignals()
	t.coro.Strict()
	t.coro.Advance(t.proc.cyc(t.proc.opts.MutexOpCycles, t))
	// Writer preference: readers defer to an active or waiting writer.
	for m.writer != nil || len(m.waitersW) > 0 {
		m.waitersR = append(m.waitersR, t)
		t.coro.Block()
		t.vtCharge(vtprof.SyncWait)
		t.checkSignals()
		t.coro.Strict()
	}
	m.readers++
}

// Lock acquires the lock exclusive (pthread_rwlock_wrlock).
func (m *RWMutex) Lock(t *Thread) {
	t.beforeSync()
	t.checkSignals()
	t.coro.Strict()
	t.coro.Advance(t.proc.cyc(t.proc.opts.MutexOpCycles, t))
	for m.writer != nil || m.readers > 0 {
		m.waitersW = append(m.waitersW, t)
		t.coro.Block()
		t.vtCharge(vtprof.SyncWait)
		t.checkSignals()
		t.coro.Strict()
	}
	m.writer = t
}

// Unlock releases the lock (pthread_rwlock_unlock); it works for both
// shared and exclusive holders, like the POSIX call.
func (m *RWMutex) Unlock(t *Thread) {
	t.beforeSync()
	t.checkSignals()
	t.coro.Strict()
	switch {
	case m.writer == t:
		m.writer = nil
	case m.readers > 0:
		m.readers--
	default:
		t.Failf("rwmutex %q: unlock by non-holder %q", m.name, t.name)
	}
	t.coro.Advance(t.proc.cyc(t.proc.opts.MutexOpCycles, t))
	if m.writer != nil || m.readers > 0 {
		return // still held; nothing to wake yet
	}
	wake := func(w *Thread) {
		t.coro.Unblock(w.coro, t.coro.Clock()+t.proc.cyc(t.proc.opts.MutexHandoffCycles, w))
	}
	if len(m.waitersW) > 0 {
		next := m.waitersW[0]
		m.waitersW = m.waitersW[1:]
		wake(next)
		return
	}
	for _, r := range m.waitersR {
		wake(r)
	}
	m.waitersR = m.waitersR[:0]
}
