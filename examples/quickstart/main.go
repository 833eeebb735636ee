// Quickstart: attach Quartz to a process, chase pointers through emulated
// persistent memory at a few target latencies, and print the measured
// application-perceived latency — the one-file introduction to the API.
package main

import (
	"fmt"
	"io"
	"os"

	"github.com/quartz-emu/quartz"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "quickstart: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	fmt.Fprintln(w, "Quartz quickstart: emulating NVM read latencies on the Ivy Bridge testbed")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-12s  %-14s  %s\n", "target (ns)", "measured (ns)", "error")

	for _, targetNS := range []float64{200, 400, 800} {
		measured, err := chaseAt(targetNS)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12.0f  %-14.1f  %+.2f%%\n",
			targetNS, measured, 100*(measured-targetNS)/targetNS)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "each run slows ordinary loads from DRAM down to the target NVM latency")
	fmt.Fprintln(w, "using epoch-based delay injection driven by simulated hardware counters.")
	return nil
}

// chaseAt runs a latency-bound pointer chase under emulation at the given
// target and reports the per-access latency the application observes.
func chaseAt(targetNS float64) (float64, error) {
	sys, err := quartz.NewSystem(quartz.IvyBridge, quartz.Config{
		NVMLatency: quartz.Nanoseconds(targetNS),
		InitCycles: 1, // skip the 2.5s library-init charge for the demo
	})
	if err != nil {
		return 0, err
	}

	const (
		lines = 1 << 19 // 32 MiB working set, larger than the 25 MiB L3
		iters = 40_000
	)
	// A single-cycle random permutation: every access is a demand miss and
	// the next address depends on the current one (latency-bound).
	next := make([]int32, lines)
	perm := make([]int32, lines)
	for i := range perm {
		perm[i] = int32(i)
	}
	x := uint64(1)
	for i := lines - 1; i > 0; i-- {
		x = x*6364136223846793005 + 1442695040888963407
		j := int((x >> 11) % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := 0; i < lines; i++ {
		next[perm[i]] = perm[(i+1)%lines]
	}

	var perAccessNS float64
	err = sys.Run(func(t *quartz.Thread) {
		buf, err := sys.PMalloc(lines * quartz.LineSize)
		if err != nil {
			t.Failf("pmalloc: %v", err)
		}
		cur := int32(0)
		start := t.Now()
		for i := 0; i < iters; i++ {
			t.Load(buf + uintptr(cur)*quartz.LineSize)
			cur = next[cur]
		}
		perAccessNS = (t.SettledNow() - start).Nanoseconds() / iters
	})
	return perAccessNS, err
}
