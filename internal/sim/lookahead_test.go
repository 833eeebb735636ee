package sim

import (
	"testing"
	"testing/quick"
)

// TestLookaheadSingleThreadEquivalence: for a single thread, any lookahead
// produces identical virtual timing (there are no peers to reorder against).
func TestLookaheadSingleThreadEquivalence(t *testing.T) {
	run := func(lookahead Time) Time {
		k := NewKernel(lookahead)
		var end Time
		k.Spawn("solo", 0, func(c *Coro) {
			for i := 0; i < 5000; i++ {
				c.Advance(Time(3+i%7) * Nanosecond)
				c.Sync()
			}
			end = c.Clock()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return end
	}
	strict := run(0)
	for _, la := range []Time{Nanosecond, Microsecond, Millisecond} {
		if got := run(la); got != strict {
			t.Errorf("lookahead %v end = %v, strict = %v", la, got, strict)
		}
	}
}

// TestLookaheadPreservesStrictOps: synchronization operations stay globally
// ordered even under a large lookahead quantum.
func TestLookaheadPreservesStrictOps(t *testing.T) {
	for _, la := range []Time{0, 10 * Microsecond, Millisecond} {
		k := NewKernel(la)
		var order []Time
		body := func(step Time, n int) func(*Coro) {
			return func(c *Coro) {
				for i := 0; i < n; i++ {
					c.Advance(step)
					c.Sync() // lookahead-tolerant progress
					c.Strict()
					order = append(order, c.Clock())
				}
			}
		}
		k.Spawn("a", 0, body(11*Nanosecond, 300))
		k.Spawn("b", 0, body(23*Nanosecond, 150))
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(order); i++ {
			if order[i] < order[i-1] {
				t.Fatalf("lookahead %v: strict op at %v observed after %v", la, order[i], order[i-1])
			}
		}
		order = nil
	}
}

// TestLookaheadDeterminism: a fixed lookahead still yields bit-identical
// interleavings across runs.
func TestLookaheadDeterminism(t *testing.T) {
	run := func() []Time {
		k := NewKernel(5 * Microsecond)
		var stamps []Time
		for i := 0; i < 4; i++ {
			step := Time(7+3*i) * Nanosecond
			k.Spawn("t", 0, func(c *Coro) {
				for j := 0; j < 500; j++ {
					c.Advance(step)
					c.Sync()
				}
				c.Strict()
				stamps = append(stamps, c.Clock())
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return stamps
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestLookaheadBoundProperty: for random step patterns, no Sync-observed
// event precedes an already-observed event by more than the lookahead.
func TestLookaheadBoundProperty(t *testing.T) {
	prop := func(seed uint32, laRaw uint8) bool {
		la := Time(laRaw%100) * Nanosecond
		k := NewKernel(la)
		var order []Time
		x := uint64(seed) | 1
		for i := 0; i < 3; i++ {
			k.Spawn("p", 0, func(c *Coro) {
				local := x + uint64(c.id)*0x9e3779b97f4a7c15
				for j := 0; j < 100; j++ {
					local = local*6364136223846793005 + 1442695040888963407
					c.Advance(Time(local%50+1) * Nanosecond)
					c.Sync()
					order = append(order, c.Clock())
				}
			})
		}
		if err := k.Run(); err != nil {
			return false
		}
		var maxSeen Time
		for _, ts := range order {
			if ts < maxSeen-la {
				return false
			}
			if ts > maxSeen {
				maxSeen = ts
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
