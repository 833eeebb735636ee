package simos

import (
	"fmt"

	"github.com/quartz-emu/quartz/internal/obs/vtprof"
)

// Barrier is an OpenMP-style thread barrier. The paper's conclusion lists
// barrier-like parallel-programming constructs among the inter-thread
// dependency events Quartz should learn to interpose on; Wait runs the
// BeforeSync hook first so an emulator can close epochs and inject
// accumulated delay before the rendezvous becomes visible to peers — the
// same propagation rule as for lock releases (§2.3).
type Barrier struct {
	proc    *Process
	name    string
	parties int
	waiting []*Thread
	count   int
}

// NewBarrier creates a barrier for the given number of parties.
func (p *Process) NewBarrier(name string, parties int) (*Barrier, error) {
	if parties <= 0 {
		return nil, fmt.Errorf("simos: barrier %q: parties = %d, must be positive", name, parties)
	}
	return &Barrier{proc: p, name: name, parties: parties}, nil
}

// Name reports the barrier's diagnostic name.
func (b *Barrier) Name() string { return b.name }

// Wait blocks until all parties have arrived, then releases the generation.
func (b *Barrier) Wait(t *Thread) {
	t.beforeSync()
	t.checkSignals()
	t.coro.Strict()
	t.coro.Advance(t.proc.cyc(t.proc.opts.MutexOpCycles, t))
	b.count++
	if b.count < b.parties {
		b.waiting = append(b.waiting, t)
		t.coro.Block()
		t.vtCharge(vtprof.SyncWait)
		t.checkSignals()
		return
	}
	// Last arriver releases the generation; waiters resume no earlier than
	// its (possibly delay-inflated) arrival time, so injected delays
	// propagate through the barrier.
	for _, w := range b.waiting {
		t.coro.Unblock(w.coro, t.coro.Clock()+t.proc.cyc(t.proc.opts.MutexHandoffCycles, w))
	}
	b.waiting = b.waiting[:0]
	b.count = 0
}
