// KV-store sensitivity study: the paper's §4.7 MassTree experiment in
// miniature. A concurrent ordered key-value store runs a 50/50 put/get mix
// under a sweep of emulated NVM latencies and reports throughput relative
// to DRAM speed — reproducing Fig. 16's non-linear degradation.
package main

import (
	"fmt"
	"io"
	"os"

	"github.com/quartz-emu/quartz"
	"github.com/quartz-emu/quartz/internal/apps/kvstore"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "kvstore example: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	fmt.Fprintln(w, "KV store under emulated NVM (4 threads, 50/50 put/get)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-14s  %-12s  %-12s  %s\n", "NVM latency", "put/s", "get/s", "vs DRAM")

	var base float64
	for _, targetNS := range []float64{87, 200, 500, 1000, 2000} {
		res, err := throughputAt(targetNS)
		if err != nil {
			return err
		}
		total := res.PutsPerS + res.GetsPerS
		if base == 0 {
			base = total
		}
		label := fmt.Sprintf("%.0fns", targetNS)
		if targetNS == 87 {
			label = "DRAM (87ns)"
		}
		fmt.Fprintf(w, "%-14s  %-12.0f  %-12.0f  %.2fx\n", label, res.PutsPerS, res.GetsPerS, total/base)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "throughput falls slowly up to a few hundred ns, then sharply — the")
	fmt.Fprintln(w, "tree's upper levels are cache-resident, but leaf reads pay full latency.")
	return nil
}

func throughputAt(targetNS float64) (kvstore.WorkloadResult, error) {
	// A scaled testbed (DESIGN.md §6): hot tree levels stay cache-resident
	// while the value arena misses, like MassTree's cache-crafted levels on
	// a 20 MiB L3 against GB-scale data.
	mcfg := quartz.PresetMachineConfig(quartz.IvyBridge)
	mcfg.L3.SizeBytes = 2 << 20
	mcfg.L3.Ways = 16
	sys, err := quartz.NewCustomSystem(mcfg, quartz.Config{
		NVMLatency: quartz.Nanoseconds(targetNS),
		MinEpoch:   quartz.Milliseconds(0.05), // §3.2 tuning for sub-us critical sections
		InitCycles: 1,
	})
	if err != nil {
		return kvstore.WorkloadResult{}, err
	}
	store, err := kvstore.New(sys.Process, kvstore.Config{
		Partitions: 16,
		Alloc:      sys.PMalloc, // the whole store lives in persistent memory
	})
	if err != nil {
		return kvstore.WorkloadResult{}, err
	}
	var res kvstore.WorkloadResult
	err = sys.Run(func(t *quartz.Thread) {
		var rerr error
		res, rerr = kvstore.RunWorkload(store, t, kvstore.WorkloadConfig{
			Preload:      8_000,
			Threads:      4,
			OpsPerThread: 2_000,
			ValueBytes:   1024,
			ValueAlloc:   sys.PMalloc,
			Seed:         7,
		}, sys.Emulator.CloseEpoch)
		if rerr != nil {
			t.Failf("workload: %v", rerr)
		}
	})
	return res, err
}
