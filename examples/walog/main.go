// Write-ahead-log design study: how should a crash-consistent log commit to
// NVM? Quartz's purpose is answering exactly this kind of question before
// the hardware exists. The study sweeps the commit batch size under two
// write models — §3.1's serialized pflush and §6's clflushopt+pcommit —
// and two emulated NVM write latencies, printing the durable-append
// throughput of each design point.
package main

import (
	"fmt"
	"io"
	"os"

	"github.com/quartz-emu/quartz"
	"github.com/quartz-emu/quartz/internal/apps/pmlog"
)

const (
	records    = 2_000
	recordSize = 192
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "walog example: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	fmt.Fprintf(w, "WAL design study: %d durable appends of %dB records\n\n", records, recordSize)
	for _, writeNS := range []float64{300, 1000} {
		fmt.Fprintf(w, "NVM write latency %.0fns:\n", writeNS)
		fmt.Fprintf(w, "  %-26s  %-14s  %s\n", "design", "appends/s", "commit stall")
		for _, design := range []struct {
			name       string
			usePCommit bool
			batch      int
		}{
			{"pflush, commit each", false, 1},
			{"pcommit, commit each", true, 1},
			{"pcommit, batch 8", true, 8},
			{"pcommit, batch 64", true, 64},
		} {
			rate, stall, err := measure(writeNS, design.usePCommit, design.batch)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  %-26s  %-14.0f  %v\n", design.name, rate, stall)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "group commit amortizes the NVM write latency; the pcommit model lets a")
	fmt.Fprintln(w, "record's lines drain in parallel where pflush serializes them (§6).")
	return nil
}

func measure(writeNS float64, usePCommit bool, batch int) (appendsPerSec float64, stall quartz.Time, err error) {
	sys, err := quartz.NewSystem(quartz.IvyBridge, quartz.Config{
		NVMLatency:   quartz.Nanoseconds(500),
		WriteLatency: quartz.Nanoseconds(writeNS),
		InitCycles:   1,
	})
	if err != nil {
		return 0, 0, err
	}
	err = sys.Run(func(t *quartz.Thread) {
		log, lerr := pmlog.New(sys.Emulator, t, pmlog.Config{
			Capacity:   8 << 20,
			UsePCommit: usePCommit,
		})
		if lerr != nil {
			t.Failf("log: %v", lerr)
		}
		start := t.Now()
		for i := 0; i < records; i++ {
			if aerr := log.Append(t, recordSize); aerr != nil {
				t.Failf("append: %v", aerr)
			}
			if (i+1)%batch == 0 {
				log.Commit(t)
			}
		}
		log.Commit(t)
		elapsed := t.Now() - start
		if log.DurableRecords() != records {
			t.Failf("only %d of %d records durable", log.DurableRecords(), records)
		}
		appendsPerSec = float64(records) / elapsed.Seconds()
		stall = log.Stats().CommitStall
	})
	return appendsPerSec, stall, err
}
