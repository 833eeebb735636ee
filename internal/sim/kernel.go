package sim

import (
	"errors"
	"fmt"
	"iter"
	"sort"
)

// Kernel is the discrete-event scheduler. It owns every simulated thread
// (Coro) and interleaves them deterministically in virtual-time order.
//
// The zero value is not usable; construct kernels with NewKernel.
type Kernel struct {
	lookahead Time

	coros   []*Coro // all coros ever spawned, by id
	queue   coroHeap
	running *Coro // coro currently executing, nil while scheduling

	spawned    int
	finished   int
	dispatches int64
	maxQueue   int
	failure    error
	aborted    bool

	// noFastPath disables the run-to-block re-grant (push+pop per dispatch
	// instead); the equivalence tests use it to pin both paths together.
	noFastPath bool
}

// KernelStats snapshots a kernel's scheduler activity for observability:
// how many coros it ran, how many scheduler dispatches (context switches)
// the interleaving needed, and the run-queue high-water mark. Dispatches
// per coro is the direct measure of how much a lookahead quantum is saving.
type KernelStats struct {
	Spawned    int
	Finished   int
	Dispatches int64
	MaxQueue   int
}

// Stats reports scheduler activity so far (stable after Run returns).
func (k *Kernel) Stats() KernelStats {
	return KernelStats{
		Spawned:    k.spawned,
		Finished:   k.finished,
		Dispatches: k.dispatches,
		MaxQueue:   k.maxQueue,
	}
}

// NewKernel returns a kernel with the given lookahead quantum.
//
// A zero lookahead gives strict global virtual-time ordering for every
// operation. A positive lookahead lets a resumed thread keep executing
// non-strict operations until its clock exceeds the minimum peer clock plus
// the quantum, which greatly reduces context switches for memory-access
// heavy multithreaded workloads.
func NewKernel(lookahead Time) *Kernel {
	if lookahead < 0 {
		lookahead = 0
	}
	return &Kernel{lookahead: lookahead}
}

// Spawn creates a new simulated thread whose body is fn, starting at virtual
// time start. It may be called before Run, or from inside a running coro (in
// which case start is typically the parent's clock plus a creation cost).
//
// The coro's coroutine is created lazily on first dispatch, so spawning is
// cheap and no coroutine outlives Run. A body that calls runtime.Goexit (for
// example via testing.T.FailNow) does not end just its thread: once Run has
// unwound every other coro, the Goexit continues in Run's caller.
func (k *Kernel) Spawn(name string, start Time, fn func(*Coro)) *Coro {
	c := &Coro{
		kernel: k,
		id:     k.spawned,
		name:   name,
		clock:  start,
		state:  stateRunnable,
		body:   fn,
	}
	k.spawned++
	k.coros = append(k.coros, c)
	k.queue.push(c)
	k.noteEnqueued(c.key())
	return c
}

// Run executes the simulation until every thread has finished. It returns an
// error if a thread failed (via Coro.Failf or a panic in its body) or if the
// system deadlocked (blocked threads remain but nothing is runnable).
func (k *Kernel) Run() error {
	defer k.drain()
	for k.queue.len() > 0 && !k.aborted {
		if n := k.queue.len(); n > k.maxQueue {
			k.maxQueue = n
		}
		c := k.queue.pop()
		for {
			if c.state == stateSleeping {
				c.clock = maxTime(c.clock, c.wake)
				c.state = stateRunnable
			}
			c.grant = k.grantFor(c)
			k.dispatch(c)
			if c.state != stateRunnable && c.state != stateSleeping {
				break // done or blocked: nothing to re-queue
			}
			// Run-to-block fast path: if the yielded coro still orders
			// before every queued peer (key, then id — exactly the heap
			// order), pushing it would only have it popped right back, so
			// re-grant it directly and skip both heap operations. The
			// queue the grant computation sees is identical either way,
			// as are dispatch counts; only the high-water mark must be
			// accounted by hand (the reference path measures it with c
			// back in the queue).
			if k.aborted || k.noFastPath || !k.ordersFirst(c) {
				k.queue.push(c)
				break
			}
			if n := k.queue.len() + 1; n > k.maxQueue {
				k.maxQueue = n
			}
		}
	}
	blocked := k.blockedNames()
	if k.failure != nil {
		return k.failure
	}
	if len(blocked) > 0 {
		return fmt.Errorf("sim: deadlock: %d thread(s) blocked forever: %v", len(blocked), blocked)
	}
	return nil
}

// drain unwinds every started-but-unfinished coro so that Run never leaks
// a coroutine, whether it returns, panics or Goexits.
func (k *Kernel) drain() {
	for _, c := range k.coros {
		if c.stop != nil && c.state != stateDone {
			c.stop()
		}
	}
}

// Now reports the low-water mark of virtual time: the clock of the earliest
// runnable or sleeping thread, or the maximum finished clock if none remain.
func (k *Kernel) Now() Time {
	c := k.queue.peek()
	switch {
	case c != nil && k.running != nil:
		return minTime(c.key(), k.running.clock)
	case c != nil:
		return c.key()
	case k.running != nil:
		return k.running.clock
	}
	var end Time
	for _, c := range k.coros {
		if c.state == stateDone {
			end = maxTime(end, c.clock)
		}
	}
	return end
}

// dispatch switches to c, which runs on c.grant until it yields back.
func (k *Kernel) dispatch(c *Coro) {
	k.dispatches++
	k.running = c
	if c.next == nil {
		c.next, c.stop = iter.Pull(c.run)
	}
	c.next()
	k.running = nil
}

// grantFor computes the execution horizon for c: how far its clock may
// advance before it must yield back to the scheduler.
func (k *Kernel) grantFor(c *Coro) grant {
	peer := k.queue.peek()
	if peer == nil {
		return grant{strict: MaxTime, horizon: MaxTime}
	}
	pk := peer.key()
	h := pk + k.lookahead
	if h < pk { // overflow
		h = MaxTime
	}
	return grant{strict: pk, horizon: h}
}

// ordersFirst reports whether c schedules before every queued coro — the
// same strict total order (key, then spawn id) the heap pops in.
func (k *Kernel) ordersFirst(c *Coro) bool {
	top := k.queue.peek()
	if top == nil {
		return true
	}
	ck, tk := c.key(), top.key()
	return ck < tk || (ck == tk && c.id < top.id)
}

// unblock moves a blocked coro back onto the run queue with its clock
// advanced to at least at. It must only be called from simulation context
// (inside a running coro) or before Run starts.
func (k *Kernel) unblock(c *Coro, at Time) {
	if c.state != stateBlocked {
		k.fail(fmt.Errorf("sim: unblock of %s in state %v", c.name, c.state))
		return
	}
	c.clock = maxTime(c.clock, at)
	c.state = stateRunnable
	k.queue.push(c)
	k.noteEnqueued(c.key())
}

// noteEnqueued shrinks the running coro's execution grant after a peer
// appears at (or moves to) virtual time at. Without this, a coro that was
// granted a far horizon (for example while it was the only runnable thread)
// could keep executing past events of a thread it just spawned or woke,
// violating causality.
func (k *Kernel) noteEnqueued(at Time) {
	r := k.running
	if r == nil {
		return
	}
	r.grant.strict = minTime(r.grant.strict, at)
	h := at + k.lookahead
	if h < at { // overflow
		h = MaxTime
	}
	r.grant.horizon = minTime(r.grant.horizon, h)
}

// fail records the first fatal error and aborts the simulation.
func (k *Kernel) fail(err error) {
	if k.failure == nil {
		k.failure = err
	}
	k.aborted = true
}

func (k *Kernel) blockedNames() []string {
	var names []string
	for _, c := range k.coros {
		if c.state == stateBlocked {
			names = append(names, c.name)
		}
	}
	sort.Strings(names)
	return names
}

// ErrAborted is returned by coro operations attempted after the kernel has
// aborted due to a prior failure.
var ErrAborted = errors.New("sim: kernel aborted")
