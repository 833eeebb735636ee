package simos

import (
	"errors"
	"slices"
	"testing"

	"github.com/quartz-emu/quartz/internal/machine"
	"github.com/quartz-emu/quartz/internal/sim"
)

func newProc(t *testing.T, opts Options) *Process {
	t.Helper()
	m, err := machine.NewPreset(machine.XeonE5_2660v2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProcess(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunSimpleProgram(t *testing.T) {
	p := newProc(t, DefaultOptions())
	var end sim.Time
	err := p.Run(func(th *Thread) {
		th.Compute(2200) // 1us at 2.2GHz
		end = th.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := end.Microseconds(); got < 0.99 || got > 1.01 {
		t.Errorf("compute end = %v, want ~1us", end)
	}
}

func TestLoadLatencies(t *testing.T) {
	p := newProc(t, DefaultOptions())
	cfg := p.Machine().Config()
	err := p.Run(func(th *Thread) {
		local, _ := p.MallocOnNode(1<<20, 0)
		remote, _ := p.MallocOnNode(1<<20, 1)

		start := th.Now()
		th.Load(local)
		latL := th.Now() - start

		start = th.Now()
		th.Load(remote)
		latR := th.Now() - start

		if latL != cfg.LocalLat {
			th.Failf("local load latency %v, want %v", latL, cfg.LocalLat)
		}
		if latR != cfg.RemoteLat {
			th.Failf("remote load latency %v, want %v", latR, cfg.RemoteLat)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMallocPlacement(t *testing.T) {
	p := newProc(t, DefaultOptions())
	a0, err := p.MallocOnNode(4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := p.MallocOnNode(4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.NodeOf(a0) != 0 || p.NodeOf(a1) != 1 {
		t.Errorf("NodeOf = %d,%d, want 0,1", p.NodeOf(a0), p.NodeOf(a1))
	}
	if a0 == 0 {
		t.Error("allocation returned NULL")
	}
	if _, err := p.MallocOnNode(16, 9); err == nil {
		t.Error("malloc on invalid node succeeded")
	}
	b, err := p.MallocOnNode(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b == a0 {
		t.Error("allocations overlap")
	}
	// Default policy node is the first allowed socket.
	d, err := p.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if p.NodeOf(d) != 0 {
		t.Errorf("default malloc on node %d, want 0", p.NodeOf(d))
	}
	// A size whose page rounding wraps, and one whose sum with the bump
	// pointer wraps, are refused and leave the bump pointer in place.
	for _, size := range []uintptr{^uintptr(0), ^uintptr(0) - 8192 - 4095} {
		if a, err := p.MallocOnNode(size, 0); err == nil {
			t.Errorf("MallocOnNode(%#x) = %#x, want an error", size, a)
		}
	}
	next, err := p.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if next <= d {
		t.Errorf("malloc after refused sizes = %#x, want above %#x", next, d)
	}
}

func TestAllowedSocketsBindThreadsAndMalloc(t *testing.T) {
	opts := DefaultOptions()
	opts.AllowedSockets = []int{1}
	p := newProc(t, opts)
	err := p.Run(func(th *Thread) {
		if !slices.Contains(p.Machine().Socket(1).Cores, th.Core()) {
			th.Failf("main thread not on socket 1")
		}
		a, err := p.Malloc(64)
		if err != nil {
			th.Failf("malloc: %v", err)
		}
		if p.NodeOf(a) != 1 {
			th.Failf("policy malloc landed on node %d, want 1", p.NodeOf(a))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCreateThreadAndJoin(t *testing.T) {
	p := newProc(t, DefaultOptions())
	var childEnd, mainAfterJoin sim.Time
	err := p.Run(func(th *Thread) {
		child, err := th.CreateThread("worker", func(w *Thread) {
			w.Compute(220_000) // 100us
			childEnd = w.Now()
		})
		if err != nil {
			th.Failf("create: %v", err)
		}
		th.Join(child)
		mainAfterJoin = th.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	if mainAfterJoin < childEnd {
		t.Errorf("join returned at %v before child end %v", mainAfterJoin, childEnd)
	}
	if mainAfterJoin > childEnd+10*sim.Microsecond {
		t.Errorf("join overhead too large: %v after child end", mainAfterJoin-childEnd)
	}
}

func TestJoinAlreadyFinishedThread(t *testing.T) {
	p := newProc(t, DefaultOptions())
	err := p.Run(func(th *Thread) {
		child, _ := th.CreateThread("quick", func(w *Thread) {
			w.Compute(10)
		})
		th.Compute(22_000_000) // 10ms: child long gone
		before := th.Now()
		th.Join(child)
		if th.Now() != before {
			th.Failf("joining a finished thread advanced time from %v to %v", before, th.Now())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMutexMutualExclusionAndFIFO(t *testing.T) {
	p := newProc(t, DefaultOptions())
	m := p.NewMutex("m")
	var order []string
	err := p.Run(func(th *Thread) {
		m.Lock(th)
		var children []*Thread
		for _, name := range []string{"a", "b", "c"} {
			name := name
			c, err := th.CreateThread(name, func(w *Thread) {
				m.Lock(w)
				order = append(order, w.Name())
				w.Compute(1000)
				m.Unlock(w)
			})
			if err != nil {
				th.Failf("create: %v", err)
			}
			children = append(children, c)
			th.Compute(220_000) // let each child reach the lock in turn
		}
		th.Compute(2_200_000)
		m.Unlock(th)
		for _, c := range children {
			th.Join(c)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Errorf("acquisition order = %v, want FIFO [a b c]", order)
	}
}

func TestMutexBlocksUntilRelease(t *testing.T) {
	p := newProc(t, DefaultOptions())
	m := p.NewMutex("m")
	var acquired, released sim.Time
	err := p.Run(func(th *Thread) {
		m.Lock(th)
		child, _ := th.CreateThread("waiter", func(w *Thread) {
			m.Lock(w)
			acquired = w.Now()
			m.Unlock(w)
		})
		th.ComputeFor(5 * sim.Millisecond)
		released = th.Now()
		m.Unlock(th)
		th.Join(child)
	})
	if err != nil {
		t.Fatal(err)
	}
	if acquired < released {
		t.Errorf("waiter acquired at %v before release at %v", acquired, released)
	}
}

func TestMutexErrors(t *testing.T) {
	p := newProc(t, DefaultOptions())
	m := p.NewMutex("m")
	err := p.Run(func(th *Thread) {
		m.Unlock(th) // unlock without holding
	})
	if err == nil {
		t.Error("unlock by non-owner did not fail")
	}

	p2 := newProc(t, DefaultOptions())
	m2 := p2.NewMutex("m2")
	err = p2.Run(func(th *Thread) {
		m2.Lock(th)
		m2.Lock(th) // recursive
	})
	if err == nil {
		t.Error("recursive lock did not fail")
	}
}

func TestCondSignalWakesOldestWaiter(t *testing.T) {
	p := newProc(t, DefaultOptions())
	m := p.NewMutex("m")
	c := p.NewCond("c")
	var woken []string
	err := p.Run(func(th *Thread) {
		mk := func(name string) *Thread {
			w, err := th.CreateThread(name, func(w *Thread) {
				m.Lock(w)
				c.Wait(w, m)
				woken = append(woken, w.Name())
				m.Unlock(w)
			})
			if err != nil {
				th.Failf("create: %v", err)
			}
			th.ComputeFor(sim.Millisecond) // deterministic wait order
			return w
		}
		w1 := mk("w1")
		w2 := mk("w2")
		th.ComputeFor(sim.Millisecond)
		m.Lock(th)
		c.Signal(th)
		m.Unlock(th)
		th.ComputeFor(sim.Millisecond)
		m.Lock(th)
		c.Broadcast(th)
		m.Unlock(th)
		th.Join(w1)
		th.Join(w2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(woken) != 2 || woken[0] != "w1" || woken[1] != "w2" {
		t.Errorf("wake order = %v, want [w1 w2]", woken)
	}
}

func TestSignalHandlerRunsInTargetContext(t *testing.T) {
	p := newProc(t, DefaultOptions())
	var handled *Thread
	p.SetHooks(Hooks{OnEpochSignal: func(th *Thread) {
		handled = th
	}})
	err := p.Run(func(th *Thread) {
		worker, _ := th.CreateThread("worker", func(w *Thread) {
			for i := 0; i < 100; i++ {
				w.Compute(22_000) // 10us chunks
			}
		})
		th.ComputeFor(100 * sim.Microsecond)
		th.Kill(worker)
		th.Join(worker)
		if handled == nil || handled.Name() != "worker" {
			th.Failf("handler thread = %v, want worker", handled)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNanosleepInterruptedReturnsEINTR(t *testing.T) {
	p := newProc(t, DefaultOptions())
	p.SetHooks(Hooks{OnEpochSignal: func(*Thread) {}})
	var sleepErr error
	var slept sim.Time
	err := p.Run(func(th *Thread) {
		sleeper, _ := th.CreateThread("sleeper", func(w *Thread) {
			start := w.Now()
			sleepErr = w.Nanosleep(50 * sim.Millisecond)
			slept = w.Now() - start
		})
		th.ComputeFor(1 * sim.Millisecond)
		th.Kill(sleeper)
		th.Join(sleeper)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(sleepErr, ErrInterrupted) {
		t.Errorf("nanosleep error = %v, want EINTR", sleepErr)
	}
	if slept > 10*sim.Millisecond {
		t.Errorf("interrupted sleep lasted %v, want ~1ms", slept)
	}
}

func TestNanosleepUninterruptedCompletes(t *testing.T) {
	p := newProc(t, DefaultOptions())
	err := p.Run(func(th *Thread) {
		start := th.Now()
		if err := th.Nanosleep(3 * sim.Millisecond); err != nil {
			th.Failf("nanosleep: %v", err)
		}
		if got := th.Now() - start; got != 3*sim.Millisecond {
			th.Failf("slept %v, want 3ms", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestHooks checks where each hook runs. BeforeSync fires exactly once at
// the start of each of the nine synchronization entry points, ahead of the
// op's own delivery of a pending signal; inside Cond.Wait it fires at the
// release and again at the re-acquisition, which is a Mutex.Lock.
// ThreadStarted runs in each created thread, on its clock, before its body,
// and never in the main thread.
func TestHooks(t *testing.T) {
	type objs struct {
		m  *Mutex
		c  *Cond
		rw *RWMutex
		b  *Barrier
	}
	onOwn := []string{"sync", "signal"}
	cases := []struct {
		name  string
		setup func(th *Thread, o objs) // runs before events are logged
		op    func(th *Thread, o objs)
		want  []string
	}{
		{"Mutex.Lock", nil, func(th *Thread, o objs) { o.m.Lock(th) }, onOwn},
		{"Mutex.Unlock", func(th *Thread, o objs) { o.m.Lock(th) }, func(th *Thread, o objs) { o.m.Unlock(th) }, onOwn},
		{"Cond.Signal", nil, func(th *Thread, o objs) { o.c.Signal(th) }, onOwn},
		{"Cond.Broadcast", nil, func(th *Thread, o objs) { o.c.Broadcast(th) }, onOwn},
		{"Cond.Wait", func(th *Thread, o objs) {
			o.m.Lock(th)
			if _, err := th.CreateThread("signaller", func(s *Thread) {
				o.m.Lock(s)
				o.c.Signal(s)
				o.m.Unlock(s)
			}); err != nil {
				th.Failf("create: %v", err)
			}
		}, func(th *Thread, o objs) { o.c.Wait(th, o.m) }, []string{"signal", "sync", "sync"}},
		{"RWMutex.RLock", nil, func(th *Thread, o objs) { o.rw.RLock(th) }, onOwn},
		{"RWMutex.Lock", nil, func(th *Thread, o objs) { o.rw.Lock(th) }, onOwn},
		{"RWMutex.Unlock", func(th *Thread, o objs) { o.rw.RLock(th) }, func(th *Thread, o objs) { o.rw.Unlock(th) }, onOwn},
		{"Barrier.Wait", nil, func(th *Thread, o objs) { o.b.Wait(th) }, onOwn},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newProc(t, DefaultOptions())
			b, err := p.NewBarrier("b", 1)
			if err != nil {
				t.Fatal(err)
			}
			o := objs{p.NewMutex("m"), p.NewCond("c"), p.NewRWMutex("rw"), b}
			var op *Thread
			var log []string
			p.SetHooks(Hooks{
				BeforeSync: func(th *Thread) {
					if th == op {
						log = append(log, "sync")
					}
				},
				OnEpochSignal: func(th *Thread) {
					if th == op {
						log = append(log, "signal")
					}
				},
			})
			err = p.Run(func(th *Thread) {
				if tc.setup != nil {
					tc.setup(th, o)
				}
				op = th
				th.signalPending = true // pending at entry
				tc.op(th, o)
				op = nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(log, tc.want) {
				t.Errorf("events = %v, want %v", log, tc.want)
			}
		})
	}

	t.Run("ThreadStarted", func(t *testing.T) {
		p := newProc(t, DefaultOptions())
		var log []string
		var hookEnd sim.Time
		p.SetHooks(Hooks{ThreadStarted: func(th *Thread) {
			log = append(log, "started "+th.Name())
			th.ComputeFor(sim.Microsecond) // on the new thread's clock
			hookEnd = th.Now()
		}})
		err := p.Run(func(th *Thread) {
			for _, name := range []string{"a", "b"} {
				c, err := th.CreateThread(name, func(c *Thread) {
					log = append(log, "body "+c.Name())
					if c.Now() != hookEnd {
						c.Failf("body of %s starts at %v, want the hook's end %v", c.Name(), c.Now(), hookEnd)
					}
				})
				if err != nil {
					th.Failf("create: %v", err)
				}
				th.Join(c)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := []string{"started a", "body a", "started b", "body b"}; !slices.Equal(log, want) {
			t.Errorf("events = %v, want %v", log, want)
		}
	})
}

// TestThreadCreateInterposition checks that a thread pinned with
// CreateThreadOn gets the ThreadStarted hook too, once, on its own thread.
func TestThreadCreateInterposition(t *testing.T) {
	p := newProc(t, DefaultOptions())
	var started []string
	p.SetHooks(Hooks{ThreadStarted: func(th *Thread) { started = append(started, th.Name()) }})
	err := p.Run(func(th *Thread) {
		w, err := th.CreateThreadOn(0, "registered", func(w *Thread) { w.Compute(10) })
		if err != nil {
			th.Failf("create: %v", err)
		}
		th.Join(w)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(started) != 1 || started[0] != "registered" {
		t.Errorf("started threads = %v, want [registered]", started)
	}
}

// TestEpochSignalCoalescesAndRedelivers pins Kill's delivery rules: a second
// Kill while the signal is pending runs the hook once, and a Kill sent while
// the hook runs is delivered after the hook returns, not nested inside it.
func TestEpochSignalCoalescesAndRedelivers(t *testing.T) {
	p := newProc(t, DefaultOptions())
	var calls, depth, maxDepth int
	var resend bool
	p.SetHooks(Hooks{OnEpochSignal: func(th *Thread) {
		calls++
		depth++
		maxDepth = max(maxDepth, depth)
		if resend {
			resend = false
			th.Kill(th)
			th.Compute(100) // an interruption point inside the hook
		}
		depth--
	}})
	var afterFirst, afterSecond int
	err := p.Run(func(th *Thread) {
		w, err := th.CreateThread("sleeper", func(w *Thread) {
			_ = w.Nanosleep(50 * sim.Millisecond)
			afterFirst = calls
			_ = w.Nanosleep(50 * sim.Millisecond)
			afterSecond = calls
		})
		if err != nil {
			th.Failf("create: %v", err)
		}
		th.ComputeFor(sim.Millisecond)
		th.Kill(w)
		th.Kill(w)
		th.ComputeFor(sim.Millisecond)
		th.YieldStrict() // let the sleeper take the first signal
		resend = true
		th.Kill(w)
		th.Join(w)
	})
	if err != nil {
		t.Fatal(err)
	}
	if afterFirst != 1 {
		t.Errorf("two Kills while pending ran the hook %d times, want 1", afterFirst)
	}
	if afterSecond != 3 || maxDepth != 1 {
		t.Errorf("Kill during the hook: %d calls at depth %d, want 3 at depth 1", afterSecond, maxDepth)
	}
}

func TestStoreThenFlushStalls(t *testing.T) {
	p := newProc(t, DefaultOptions())
	err := p.Run(func(th *Thread) {
		addr, _ := p.Malloc(4096)
		th.Store(addr)
		start := th.Now()
		th.Flush(addr)
		flushTime := th.Now() - start
		if flushTime < 50*sim.Nanosecond {
			th.Failf("flush of dirty line took %v, want a memory round trip", flushTime)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFlushOptDoesNotStall(t *testing.T) {
	p := newProc(t, DefaultOptions())
	err := p.Run(func(th *Thread) {
		addr, _ := p.Malloc(4096)
		th.Store(addr)
		start := th.Now()
		wb := th.FlushOpt(addr)
		issueTime := th.Now() - start
		if issueTime > 50*sim.Nanosecond {
			th.Failf("clflushopt issue took %v, want instruction cost only", issueTime)
		}
		if wb <= th.Now() {
			th.Failf("writeback completion %v not in the future", wb)
		}
		th.Fence(wb)
		if th.Now() < wb {
			th.Failf("fence did not wait for writeback")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSpinUntilTSC(t *testing.T) {
	p := newProc(t, DefaultOptions())
	err := p.Run(func(th *Thread) {
		start := th.Core().TSC(th.Now())
		target := start + 220_000 // 100us at 2.2GHz
		th.SpinUntilTSC(target, 20)
		if got := th.Core().TSC(th.Now()); got < target {
			th.Failf("spin ended at TSC %d, want >= %d", got, target)
		}
		if got := th.Core().TSC(th.Now()); got > target+1000 {
			th.Failf("spin overshot to %d (target %d)", got, target)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicMultithreadedRun(t *testing.T) {
	run := func() sim.Time {
		p := newProc(t, DefaultOptions())
		m := p.NewMutex("m")
		err := p.Run(func(th *Thread) {
			var children []*Thread
			for i := 0; i < 4; i++ {
				base, _ := p.Malloc(1 << 20)
				c, err := th.CreateThread("w", func(w *Thread) {
					for j := 0; j < 200; j++ {
						w.Load(base + uintptr(j*4096))
						m.Lock(w)
						w.Compute(100)
						m.Unlock(w)
					}
				})
				if err != nil {
					th.Failf("create: %v", err)
				}
				children = append(children, c)
			}
			for _, c := range children {
				th.Join(c)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return p.EndTime()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("multithreaded run nondeterministic: %v vs %v", a, b)
	}
}

func TestProcessRunTwiceFails(t *testing.T) {
	p := newProc(t, DefaultOptions())
	if err := p.Run(func(th *Thread) {}); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(func(th *Thread) {}); err == nil {
		t.Error("second Run succeeded")
	}
}

func TestNewProcessValidation(t *testing.T) {
	m, err := machine.NewPreset(machine.XeonE5_2450)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewProcess(nil, DefaultOptions()); err == nil {
		t.Error("nil machine accepted")
	}
	bad := DefaultOptions()
	bad.AllowedSockets = []int{5}
	if _, err := NewProcess(m, bad); err == nil {
		t.Error("invalid socket accepted")
	}
	bad = DefaultOptions()
	bad.DefaultNode = 7
	if _, err := NewProcess(m, bad); err == nil {
		t.Error("invalid default node accepted")
	}
}
