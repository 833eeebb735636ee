package sim

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	tests := []struct {
		name string
		got  float64
		want float64
	}{
		{"nanoseconds", (250 * Nanosecond).Nanoseconds(), 250},
		{"microseconds", (3 * Microsecond).Microseconds(), 3},
		{"milliseconds", (7 * Millisecond).Milliseconds(), 7},
		{"seconds", (2 * Second).Seconds(), 2},
		{"from-nanos", float64(FromNanos(97)), 97 * 1e6},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.got != tt.want {
				t.Errorf("got %v, want %v", tt.got, tt.want)
			}
		})
	}
}

func TestCycleConversionRoundTrip(t *testing.T) {
	const freq = 2.1e9
	d := CyclesToTime(1000, freq)
	wantNS := 1000 / 2.1
	if got := d.Nanoseconds(); got < wantNS-0.001 || got > wantNS+0.001 {
		t.Errorf("CyclesToTime(1000, 2.1GHz) = %vns, want ~%vns", got, wantNS)
	}
	if got := TimeToCycles(d, freq); got < 999.99 || got > 1000.01 {
		t.Errorf("round trip = %v cycles, want ~1000", got)
	}
}

func TestTimeString(t *testing.T) {
	tests := []struct {
		in   Time
		want string
	}{
		{176 * Nanosecond, "176ns"},
		{10 * Millisecond, "10ms"},
		{500 * Picosecond, "500ps"},
		{2 * Second, "2s"},
		{MaxTime, "∞"},
		{-3 * Microsecond, "-3us"},
		{-MaxTime, "-∞"},
		{math.MinInt64, "-∞"}, // what FromNanos(NaN) yields on amd64
	}
	for _, tt := range tests {
		if got := tt.in.String(); got != tt.want {
			t.Errorf("(%d).String() = %q, want %q", int64(tt.in), got, tt.want)
		}
	}
}

func TestSingleThreadRunsToCompletion(t *testing.T) {
	k := NewKernel(0)
	var end Time
	k.Spawn("solo", 0, func(c *Coro) {
		for i := 0; i < 100; i++ {
			c.Advance(10 * Nanosecond)
		}
		end = c.Clock()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 1000*Nanosecond {
		t.Errorf("end clock = %v, want 1us", end)
	}
}

func TestTwoThreadsInterleaveInTimeOrder(t *testing.T) {
	// Thread A advances in 10ns steps, thread B in 25ns steps. With strict
	// ordering, the observed sequence of (thread, clock) pairs must be
	// globally sorted by clock.
	k := NewKernel(0)
	var order []Time
	body := func(step Time, n int) func(*Coro) {
		return func(c *Coro) {
			for i := 0; i < n; i++ {
				c.Advance(step)
				c.Strict()
				order = append(order, c.Clock())
			}
		}
	}
	k.Spawn("a", 0, body(10*Nanosecond, 50))
	k.Spawn("b", 0, body(25*Nanosecond, 20))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 70 {
		t.Fatalf("observed %d events, want 70", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("event %d at %v precedes event %d at %v", i, order[i], i-1, order[i-1])
		}
	}
}

func TestLookaheadBoundsReordering(t *testing.T) {
	// With lookahead L, an event may be observed at most L earlier than an
	// already-observed event.
	const L = 100 * Nanosecond
	k := NewKernel(L)
	var order []Time
	body := func(step Time, n int) func(*Coro) {
		return func(c *Coro) {
			for i := 0; i < n; i++ {
				c.Advance(step)
				c.Sync()
				order = append(order, c.Clock())
			}
		}
	}
	k.Spawn("a", 0, body(7*Nanosecond, 200))
	k.Spawn("b", 0, body(13*Nanosecond, 100))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var maxSeen Time
	for i, ts := range order {
		if ts < maxSeen-L {
			t.Fatalf("event %d at %v violates lookahead bound (max seen %v)", i, ts, maxSeen)
		}
		if ts > maxSeen {
			maxSeen = ts
		}
	}
}

func TestBlockUnblockTransfersTime(t *testing.T) {
	k := NewKernel(0)
	var waiter *Coro
	var wokenAt Time
	k.Spawn("waiter", 0, func(c *Coro) {
		waiter = c
		c.Advance(10 * Nanosecond)
		c.Block()
		wokenAt = c.Clock()
	})
	k.Spawn("waker", 0, func(c *Coro) {
		c.Advance(500 * Nanosecond)
		c.Strict()
		c.Unblock(waiter, c.Clock())
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if wokenAt != 500*Nanosecond {
		t.Errorf("woken at %v, want 500ns", wokenAt)
	}
}

func TestUnblockInPastKeepsWaiterClock(t *testing.T) {
	k := NewKernel(0)
	var waiter *Coro
	var wokenAt Time
	k.Spawn("waiter", 0, func(c *Coro) {
		waiter = c
		c.Advance(800 * Nanosecond)
		c.Strict()
		c.Block()
		wokenAt = c.Clock()
	})
	k.Spawn("waker", 0, func(c *Coro) {
		// Runs logically in the waiter's past; waiter must not travel back.
		c.Advance(900 * Nanosecond)
		c.Strict()
		c.Unblock(waiter, 100*Nanosecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if wokenAt != 800*Nanosecond {
		t.Errorf("woken at %v, want 800ns (own clock preserved)", wokenAt)
	}
}

func TestSleepUntilAndInterrupt(t *testing.T) {
	k := NewKernel(0)
	var sleeper *Coro
	var wokeAt Time
	k.Spawn("sleeper", 0, func(c *Coro) {
		sleeper = c
		wokeAt = c.SleepUntil(10 * Millisecond)
	})
	k.Spawn("interrupter", 0, func(c *Coro) {
		c.Advance(1 * Millisecond)
		c.Strict()
		if !c.Interrupt(sleeper, c.Clock()) {
			c.Failf("target was not sleeping")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if wokeAt != 1*Millisecond {
		t.Errorf("woke at %v, want 1ms", wokeAt)
	}
}

func TestSleepWithoutInterruptWakesOnTime(t *testing.T) {
	k := NewKernel(0)
	var wokeAt Time
	k.Spawn("sleeper", 0, func(c *Coro) {
		c.Advance(2 * Nanosecond)
		wokeAt = c.Sleep(5 * Millisecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if wokeAt != 5*Millisecond+2*Nanosecond {
		t.Errorf("woke at %v, want 5.000002ms", wokeAt)
	}
}

func TestDeadlockDetected(t *testing.T) {
	k := NewKernel(0)
	k.Spawn("stuck", 0, func(c *Coro) {
		c.Block()
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("Run() = %v, want deadlock error", err)
	}
	if !strings.Contains(err.Error(), "stuck") {
		t.Errorf("deadlock error %q does not name the blocked thread", err)
	}
}

func TestFailfAbortsRun(t *testing.T) {
	k := NewKernel(0)
	k.Spawn("bad", 0, func(c *Coro) {
		c.Advance(1 * Nanosecond)
		c.Failf("boom %d", 42)
	})
	k.Spawn("bystander", 0, func(c *Coro) {
		for i := 0; i < 1000; i++ {
			c.Advance(1 * Nanosecond)
			c.Strict()
		}
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "boom 42") {
		t.Fatalf("Run() = %v, want failure containing 'boom 42'", err)
	}
}

func TestBodyPanicBecomesError(t *testing.T) {
	k := NewKernel(0)
	k.Spawn("panicky", 0, func(c *Coro) {
		panic("unexpected")
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "unexpected") {
		t.Fatalf("Run() = %v, want panic converted to error", err)
	}
}

func TestSpawnFromRunningCoro(t *testing.T) {
	k := NewKernel(0)
	var childStart, childEnd Time
	k.Spawn("parent", 0, func(c *Coro) {
		c.Advance(100 * Nanosecond)
		c.Spawn("child", 10*Nanosecond, func(cc *Coro) {
			childStart = cc.Clock()
			cc.Advance(50 * Nanosecond)
			childEnd = cc.Clock()
		})
		c.Advance(1 * Microsecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if childStart != 110*Nanosecond {
		t.Errorf("child started at %v, want 110ns", childStart)
	}
	if childEnd != 160*Nanosecond {
		t.Errorf("child ended at %v, want 160ns", childEnd)
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() []int {
		k := NewKernel(0)
		var seq []int
		for i := 0; i < 8; i++ {
			id := i
			step := Time(3+2*i) * Nanosecond
			k.Spawn("t", 0, func(c *Coro) {
				for j := 0; j < 40; j++ {
					c.Advance(step)
					c.Strict()
					seq = append(seq, id)
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return seq
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("interleaving diverges at event %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestKernelNowTracksLowWaterMark(t *testing.T) {
	k := NewKernel(0)
	var sampled Time
	k.Spawn("a", 0, func(c *Coro) {
		c.Advance(10 * Nanosecond)
		c.Strict()
		sampled = k.Now()
		c.Advance(100 * Nanosecond)
	})
	k.Spawn("b", 0, func(c *Coro) {
		c.Advance(4 * Nanosecond)
		c.Strict()
		c.Advance(200 * Nanosecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if sampled > 10*Nanosecond {
		t.Errorf("Now() sampled %v; low-water mark must not exceed sampler's clock", sampled)
	}
	if end := k.Now(); end != 204*Nanosecond {
		t.Errorf("final Now() = %v, want 204ns", end)
	}
}

// TestHeapOrderingProperty checks, via testing/quick, that any batch of
// spawn times is drained by the scheduler in nondecreasing order.
func TestHeapOrderingProperty(t *testing.T) {
	prop := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		k := NewKernel(0)
		var seen []Time
		for _, r := range raw {
			start := Time(r%1_000_000) * Picosecond
			k.Spawn("p", start, func(c *Coro) {
				c.Strict()
				seen = append(seen, c.Clock())
			})
		}
		if err := k.Run(); err != nil {
			return false
		}
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAdvanceNegativeFails(t *testing.T) {
	k := NewKernel(0)
	k.Spawn("neg", 0, func(c *Coro) {
		c.Advance(-1)
	})
	if err := k.Run(); err == nil {
		t.Fatal("Run() = nil, want error for negative advance")
	}
}
