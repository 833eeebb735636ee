// Persistent-write ordering: the §3.1 / §6 write story. Crash-consistent
// persistent-memory code must order its writes to NVM; Quartz emulates slow
// NVM writes at those ordering points. This example initializes a batch of
// persistent objects (several fields each) three ways:
//
//  1. no persistence (posted stores only — the volatile upper bound),
//  2. pflush after every field (clflush + write delay, pessimistically
//     serialized, §3.1),
//  3. clflushopt per field + one pcommit barrier per object (§6's
//     extension: independent writes overlap; only the barrier waits).
//
// The output shows pcommit recovering most of the serialization cost while
// preserving per-object durability ordering.
package main

import (
	"fmt"
	"io"
	"os"

	"github.com/quartz-emu/quartz"
)

const (
	objects      = 2_000
	fieldsPerObj = 8
	writeLatNS   = 700
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "persistence example: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	fmt.Fprintf(w, "initializing %d persistent objects x %d fields (NVM write latency %dns)\n\n",
		objects, fieldsPerObj, writeLatNS)
	fmt.Fprintf(w, "%-34s  %-10s  %s\n", "write model", "CT (ms)", "vs volatile")

	type mode int
	const (
		volatile mode = iota
		pflush
		pcommit
	)
	names := map[mode]string{
		volatile: "posted stores (no durability)",
		pflush:   "pflush per field (serialized)",
		pcommit:  "clflushopt + pcommit per object",
	}

	var base float64
	for _, m := range []mode{volatile, pflush, pcommit} {
		ct, err := initObjects(m == pflush, m == pcommit)
		if err != nil {
			return err
		}
		if base == 0 {
			base = ct
		}
		fmt.Fprintf(w, "%-34s  %-10.2f  %.1fx\n", names[m], ct, ct/base)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "pcommit lets the eight independent field writes of each object drain")
	fmt.Fprintln(w, "in parallel; only the commit barrier pays the residual write latency.")
	return nil
}

func initObjects(usePFlush, usePCommit bool) (ctMS float64, err error) {
	sys, err := quartz.NewSystem(quartz.IvyBridge, quartz.Config{
		NVMLatency:   quartz.Nanoseconds(500),
		WriteLatency: quartz.Nanoseconds(writeLatNS),
		InitCycles:   1,
	})
	if err != nil {
		return 0, err
	}
	err = sys.Run(func(t *quartz.Thread) {
		base, perr := sys.PMalloc(objects * fieldsPerObj * 64)
		if perr != nil {
			t.Failf("pmalloc: %v", perr)
		}
		start := t.Now()
		for o := 0; o < objects; o++ {
			objBase := base + uintptr(o*fieldsPerObj*64)
			for f := 0; f < fieldsPerObj; f++ {
				addr := objBase + uintptr(f*64)
				t.Store(addr)
				switch {
				case usePFlush:
					sys.Emulator.PFlush(t, addr)
				case usePCommit:
					sys.Emulator.PFlushOpt(t, addr)
				}
			}
			if usePCommit {
				sys.Emulator.PCommit(t) // object becomes durable here
			}
		}
		sys.Emulator.CloseEpoch(t)
		ctMS = (t.Now() - start).Milliseconds()
	})
	return ctMS, err
}
