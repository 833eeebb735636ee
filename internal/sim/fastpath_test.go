package sim

import (
	"fmt"
	"testing"
)

// runWorkload executes a mixed multi-coro workload (strict yields, sleeps,
// blocking hand-offs, interrupts) and returns an event log of (name, clock)
// observations plus the kernel stats. The noFastPath knob disables Run's
// re-grant fast path so the same workload exercises the reference
// pop/push-per-dispatch scheduler.
func runWorkload(t *testing.T, lookahead Time, noFastPath bool) ([]string, KernelStats) {
	t.Helper()
	k := NewKernel(lookahead)
	k.noFastPath = noFastPath
	var log []string
	record := func(c *Coro) {
		log = append(log, fmt.Sprintf("%s@%d", c.Name(), c.Clock()))
	}

	var pong *Coro
	k.Spawn("compute", 0, func(c *Coro) {
		// Long uninterrupted advance runs — the run-to-block fast path's
		// best case.
		for i := 0; i < 300; i++ {
			c.Advance(3 * Nanosecond)
			if i%50 == 0 {
				c.Strict()
				record(c)
			}
		}
	})
	k.Spawn("stepper", 0, func(c *Coro) {
		for i := 0; i < 100; i++ {
			c.Advance(7 * Nanosecond)
			c.Sync()
			record(c)
		}
	})
	k.Spawn("sleeper", 0, func(c *Coro) {
		for i := 0; i < 20; i++ {
			c.Sleep(40 * Nanosecond)
			record(c)
		}
	})
	pong = k.Spawn("pong", 0, func(c *Coro) {
		for i := 0; i < 10; i++ {
			c.Block()
			record(c)
		}
	})
	k.Spawn("ping", 0, func(c *Coro) {
		for i := 0; i < 10; i++ {
			c.Advance(55 * Nanosecond)
			c.Strict()
			c.Unblock(pong, c.Clock()+5*Nanosecond)
			record(c)
		}
		// Nudge the sleeper with interrupts, including wakes that do and do
		// not change its heap key.
		for i := 0; i < 5; i++ {
			c.Advance(13 * Nanosecond)
			c.Interrupt(k.coros[2], c.Clock())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return log, k.Stats()
}

// TestFastPathMatchesReferenceScheduler runs the same workload with the
// dispatch fast path enabled and disabled: the observable event sequence
// (names and clocks), the dispatch count and the spawn/finish accounting
// must be identical. Only MaxQueue may legitimately differ — the fast path
// never materializes the running coro in the heap, but it still accounts it,
// so it must match too.
func TestFastPathMatchesReferenceScheduler(t *testing.T) {
	for _, lookahead := range []Time{0, 10 * Nanosecond, Microsecond} {
		t.Run(fmt.Sprintf("lookahead=%v", lookahead), func(t *testing.T) {
			fastLog, fastStats := runWorkload(t, lookahead, false)
			refLog, refStats := runWorkload(t, lookahead, true)
			if len(fastLog) != len(refLog) {
				t.Fatalf("event counts differ: fast %d, reference %d", len(fastLog), len(refLog))
			}
			for i := range refLog {
				if fastLog[i] != refLog[i] {
					t.Fatalf("event %d differs: fast %q, reference %q", i, fastLog[i], refLog[i])
				}
			}
			if fastStats != refStats {
				t.Errorf("kernel stats differ: fast %+v, reference %+v", fastStats, refStats)
			}
		})
	}
}

// BenchmarkKernelDispatch measures scheduler throughput on a ping-pong of
// synchronizing coros — the dispatch-dominated regime.
func BenchmarkKernelDispatch(b *testing.B) {
	k := NewKernel(0)
	for w := 0; w < 4; w++ {
		k.Spawn(fmt.Sprintf("w%d", w), 0, func(c *Coro) {
			for i := 0; i < b.N; i++ {
				c.Advance(Nanosecond)
				c.Sync()
			}
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	reportDispatchCost(b, k)
}

// reportDispatchCost adds the host price of one scheduler dispatch to the
// benchmark output.
func reportDispatchCost(b *testing.B, k *Kernel) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(k.Stats().Dispatches), "ns/dispatch")
}

// BenchmarkKernelRunToBlock measures the solo-coro regime where the re-grant
// fast path should keep the heap untouched.
func BenchmarkKernelRunToBlock(b *testing.B) {
	k := NewKernel(0)
	k.Spawn("solo", 0, func(c *Coro) {
		for i := 0; i < b.N; i++ {
			c.Advance(Nanosecond)
			c.Yield()
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	reportDispatchCost(b, k)
}
