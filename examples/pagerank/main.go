// PageRank sensitivity study: the paper's §4.7 graph-analytics experiment.
// PageRank streams the edge array (prefetch-friendly) while gathering
// source ranks at random (latency-bound); its completion time under a sweep
// of emulated NVM latencies shows Fig. 16's non-linearity — nearly flat at
// 2x DRAM latency, several-fold slower at microsecond latencies.
package main

import (
	"fmt"
	"io"
	"os"

	"github.com/quartz-emu/quartz"
	"github.com/quartz-emu/quartz/internal/apps/pagerank"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "pagerank example: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	fmt.Fprintln(w, "PageRank (20k vertices, 160k edges) under emulated NVM")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-14s  %-10s  %-8s  %s\n", "NVM latency", "CT (ms)", "iters", "vs DRAM")

	var base float64
	for _, targetNS := range []float64{87, 200, 500, 1000, 2000} {
		ct, iters, err := pageRankAt(targetNS)
		if err != nil {
			return err
		}
		if base == 0 {
			base = ct
		}
		label := fmt.Sprintf("%.0fns", targetNS)
		if targetNS == 87 {
			label = "DRAM (87ns)"
		}
		fmt.Fprintf(w, "%-14s  %-10.2f  %-8d  %.2fx\n", label, ct, iters, ct/base)
	}
	return nil
}

// pageRankAt runs PageRank at one NVM latency and reports its settled
// completion time in milliseconds and the iterations it ran.
func pageRankAt(targetNS float64) (ctMS float64, iters int, err error) {
	// A scaled testbed (DESIGN.md §6): the rank vectors exceed the L3 the
	// way 4.8M-vertex vectors exceed a 25 MiB cache.
	mcfg := quartz.PresetMachineConfig(quartz.IvyBridge)
	mcfg.L3.SizeBytes = 256 << 10
	mcfg.L3.Ways = 16
	sys, err := quartz.NewCustomSystem(mcfg, quartz.Config{
		NVMLatency: quartz.Nanoseconds(targetNS),
		InitCycles: 1,
	})
	if err != nil {
		return 0, 0, err
	}
	g, err := pagerank.Generate(pagerank.GenerateConfig{
		Vertices:       20_000,
		EdgesPerVertex: 8,
		Seed:           3,
	}, sys.PMalloc)
	if err != nil {
		return 0, 0, err
	}
	err = sys.Run(func(t *quartz.Thread) {
		cfg := pagerank.DefaultConfig()
		cfg.MaxIters = 10
		start := t.Now()
		res, rerr := pagerank.Run(g, t, cfg, sys.PMalloc)
		if rerr != nil {
			t.Failf("pagerank: %v", rerr)
		}
		ctMS = (t.SettledNow() - start).Milliseconds()
		iters = res.Iterations
	})
	return ctMS, iters, err
}
