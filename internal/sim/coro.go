package sim

import "fmt"

// coroState describes where a Coro is in its lifecycle.
type coroState int

const (
	stateRunnable coroState = iota + 1
	stateSleeping           // waiting for virtual time to reach wake
	stateBlocked            // waiting for another thread to unblock it
	stateDone
)

func (s coroState) String() string {
	switch s {
	case stateRunnable:
		return "runnable"
	case stateSleeping:
		return "sleeping"
	case stateBlocked:
		return "blocked"
	case stateDone:
		return "done"
	default:
		return fmt.Sprintf("coroState(%d)", int(s))
	}
}

// grant is the execution permission the kernel writes into a coro's grant
// field before resuming it.
type grant struct {
	strict  Time // clock bound for strictly ordered operations
	horizon Time // clock bound for lookahead-tolerant operations
}

// Coro is a simulated thread of execution: an iter.Pull coroutine coupled to
// a virtual clock and scheduled cooperatively by the Kernel, which sets its
// grant field and switches to it directly. At most one Coro (or the
// scheduler) runs at any host instant, so simulation state needs no locking.
// A body ends by returning, by Failf or by panicking; see Kernel.Spawn for
// runtime.Goexit.
type Coro struct {
	kernel *Kernel
	id     int
	name   string

	clock Time
	wake  Time // valid in stateSleeping
	state coroState
	grant grant

	body    func(*Coro)
	next    func() (struct{}, bool) // resumes the body; nil until first dispatch
	stop    func()                  // unwinds a suspended body
	yield   func(struct{}) bool     // suspends the body; false once stopped
	heapIdx int
}

// abortSentinel is panicked through a coro body to unwind it during kernel
// shutdown; it is recovered silently by run.
type abortSentinel struct{}

// failPanic carries a fatal simulation error out of a coro body.
type failPanic struct{ err error }

// ID reports the coro's unique id (spawn order).
func (c *Coro) ID() int { return c.id }

// Name reports the coro's diagnostic name.
func (c *Coro) Name() string { return c.name }

// Clock reports the coro's local virtual time.
func (c *Coro) Clock() Time { return c.clock }

// Kernel reports the owning kernel.
func (c *Coro) Kernel() *Kernel { return c.kernel }

// run is the coroutine body backing the coro.
func (c *Coro) run(yield func(struct{}) bool) {
	c.yield = yield
	defer func() {
		switch r := recover().(type) {
		case nil:
		case abortSentinel:
		case failPanic:
			c.kernel.fail(fmt.Errorf("sim: thread %q failed at %v: %w", c.name, c.clock, r.err))
		default:
			c.kernel.fail(fmt.Errorf("sim: thread %q panicked at %v: %v", c.name, c.clock, r))
		}
		c.state = stateDone
		c.kernel.finished++
	}()
	c.body(c)
}

// yieldBack returns control to the scheduler until resumed with a fresh
// grant, or unwinds the body if the kernel stopped it.
func (c *Coro) yieldBack() {
	if !c.yield(struct{}{}) {
		panic(abortSentinel{})
	}
}

// Advance moves the coro's clock forward by dt. It does not yield; callers
// use Sync or Strict before touching shared state.
func (c *Coro) Advance(dt Time) {
	if dt < 0 {
		c.Failf("negative time advance %v", dt)
	}
	c.clock += dt
}

// AdvanceTo moves the coro's clock to t if t is in its future.
func (c *Coro) AdvanceTo(t Time) {
	if t > c.clock {
		c.clock = t
	}
}

// Sync yields until the coro's clock is within the lookahead horizon of its
// peers. Call it before operating on shared hardware state where bounded
// reordering is acceptable.
func (c *Coro) Sync() {
	for c.clock > c.grant.horizon {
		c.yieldBack()
	}
}

// Strict yields until the coro's clock is the global minimum among runnable
// peers. Call it before synchronization operations (locks, signals, thread
// management) whose ordering must be exact.
func (c *Coro) Strict() {
	for c.clock > c.grant.strict {
		c.yieldBack()
	}
}

// Yield unconditionally returns control to the scheduler once. It is useful
// after making another thread runnable at a time earlier than the caller's
// clock.
func (c *Coro) Yield() { c.yieldBack() }

// Block parks the coro until another thread calls Unblock on it. The coro's
// clock on return is the unblock time (at least its clock at Block time).
func (c *Coro) Block() {
	c.state = stateBlocked
	c.yieldBack()
}

// Unblock makes a blocked coro runnable with its clock advanced to at least
// at. It must be called from another running coro or before Kernel.Run.
func (c *Coro) Unblock(target *Coro, at Time) {
	c.kernel.unblock(target, at)
}

// SleepUntil parks the coro until virtual time t (or until Interrupt wakes
// it earlier). It reports the coro's clock on wake-up.
func (c *Coro) SleepUntil(t Time) Time {
	if t > c.clock {
		c.state = stateSleeping
		c.wake = t
		c.yieldBack()
	}
	return c.clock
}

// Sleep parks the coro for duration d of virtual time.
func (c *Coro) Sleep(d Time) Time { return c.SleepUntil(c.clock + d) }

// Interrupt wakes a sleeping coro at time at (if earlier than its scheduled
// wake-up). It reports whether the target was sleeping. Interrupting a
// runnable or blocked coro has no effect.
func (c *Coro) Interrupt(target *Coro, at Time) bool {
	if target.state != stateSleeping {
		return false
	}
	if at < target.wake {
		oldKey := target.key()
		target.wake = maxTime(at, target.clock)
		// An earlier wake-up only reorders the heap when it changes the
		// scheduling key (a sleeper whose clock already passed its wake
		// time keys on the clock either way); skip the fix when it cannot.
		if target.key() != oldKey {
			c.kernel.queue.fix(target)
		}
		c.kernel.noteEnqueued(target.key())
	}
	return true
}

// Spawn creates a sibling thread starting at the caller's clock plus cost.
func (c *Coro) Spawn(name string, cost Time, fn func(*Coro)) *Coro {
	return c.kernel.Spawn(name, c.clock+cost, fn)
}

// Failf aborts the simulation with a formatted fatal error attributed to
// this thread. It does not return.
func (c *Coro) Failf(format string, args ...any) {
	panic(failPanic{err: fmt.Errorf(format, args...)})
}

// key is the scheduling key: the virtual time at which the coro next needs
// the scheduler's attention.
func (c *Coro) key() Time {
	if c.state == stateSleeping {
		return maxTime(c.clock, c.wake)
	}
	return c.clock
}
