// Package cli holds the command-line surface quartzbench and quartzrun
// share: the eight observability and introspection flags, their upfront
// validation, the wiring they ask for (recorder, ledger sink, HTTP server)
// and the exports that finish a run (Chrome trace, metrics JSON, virtual-time
// profiles, linger). Each flag has one name, one meaning and one help text on
// both commands.
//
//	-trace FILE            Chrome trace-event file of every emulated run
//	-metrics               JSON metrics snapshot on stdout after the run
//	-metrics-out FILE      the same snapshot written to FILE
//	-serve ADDR            live introspection HTTP server during the run
//	-serve-linger D        keep the server up D after the run (Ctrl-C cuts it)
//	-serve-pprof           mount net/http/pprof on the -serve server
//	-ledger-out FILE       stream every epoch record to FILE, as JSONL, as it closes
//	-vtprof DIR            virtual-time profiles (pprof .pb.gz + .folded)
//
// See doc/observability.md, doc/live-monitoring.md and doc/profiling.md.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"iter"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"github.com/quartz-emu/quartz/internal/machine"
	"github.com/quartz-emu/quartz/internal/obs"
	"github.com/quartz-emu/quartz/internal/obs/obshttp"
	"github.com/quartz-emu/quartz/internal/obs/vtprof"
	"github.com/quartz-emu/quartz/internal/runner"
)

// Obs is the shared observability flagset. Register it on a FlagSet, call
// Validate after parsing, Start before the run (deferring Close) and Finish
// after it.
type Obs struct {
	Trace      string
	Metrics    bool
	MetricsOut string
	Serve      string
	Linger     time.Duration
	ServePprof bool
	LedgerOut  string
	VTProf     string

	cmd      string // prefix of the messages written to stderr
	stderr   io.Writer
	rec      *obs.Recorder
	srv      *obshttp.Server
	profiles iter.Seq2[string, *vtprof.Profile]
}

// Sources are what a command feeds the shared flags: call arguments, not
// options, since each command has different ones.
type Sources struct {
	// Recorder asks for a recorder even when no flag needs one
	// (quartzbench -progress reads its live counters).
	Recorder bool
	// Status backs /runs; nil answers 404.
	Status *runner.StatusBoard
	// VTProf backs /vtprof with the live profile; nil answers 404.
	VTProf func() ([]byte, error)
	// Profiles yields the (file stem, profile) pairs -vtprof writes.
	Profiles iter.Seq2[string, *vtprof.Profile]
}

// Register defines the shared flags on fs; fs's name prefixes the messages
// the run writes to stderr.
func (o *Obs) Register(fs *flag.FlagSet) {
	o.cmd = fs.Name()
	fs.StringVar(&o.Trace, "trace", "", "write a Chrome trace-event file of every emulated run (open in chrome://tracing or Perfetto)")
	fs.BoolVar(&o.Metrics, "metrics", false, "print a JSON metrics snapshot to stdout after the run")
	fs.StringVar(&o.MetricsOut, "metrics-out", "", "write the JSON metrics snapshot to this file")
	fs.StringVar(&o.Serve, "serve", "", "serve live introspection HTTP (/metrics, /ledger, /runs, ...) on this address during the run (e.g. :8077)")
	fs.DurationVar(&o.Linger, "serve-linger", 0, "keep the introspection server up this long after the run finishes (Ctrl-C cuts it short)")
	fs.BoolVar(&o.ServePprof, "serve-pprof", false, "mount host-side net/http/pprof under /debug/pprof/ on the -serve server")
	fs.StringVar(&o.LedgerOut, "ledger-out", "", "stream every epoch record to this JSONL file as it closes (removes the in-memory ledger bound)")
	fs.StringVar(&o.VTProf, "vtprof", "", "write virtual-time profiles (pprof .pb.gz + .folded) into this directory")
}

// Validate rejects bad values and combinations before anything runs; the
// caller exits 2 on error.
func (o *Obs) Validate() error {
	switch {
	case o.Linger < 0:
		return fmt.Errorf("-serve-linger %s: must be >= 0", o.Linger)
	case o.Linger > 0 && o.Serve == "":
		return errors.New("-serve-linger needs -serve")
	case o.ServePprof && o.Serve == "":
		return errors.New("-serve-pprof needs -serve")
	}
	return nil
}

// Start wires up what the flags ask for: the run's recorder (the command
// hands Recorder down to every emulator it attaches), the ledger sink and
// the introspection server. An error is a usage error (exit 2). Defer Close
// whatever Start returns.
func (o *Obs) Start(stderr io.Writer, src Sources) error {
	o.stderr, o.profiles = stderr, src.Profiles
	if src.Recorder || o.Trace != "" || o.Metrics || o.MetricsOut != "" || o.Serve != "" || o.LedgerOut != "" {
		o.rec = obs.New(0)
	}
	if o.LedgerOut != "" {
		sink, err := obs.NewFileSink(o.LedgerOut)
		if err == nil {
			err = o.rec.AttachSink(sink, 0)
		}
		if err != nil {
			return fmt.Errorf("-ledger-out: %w", err)
		}
	}
	if o.Serve != "" {
		srv, err := obshttp.Start(o.Serve, obshttp.Options{
			Recorder: o.rec, Status: src.Status, VTProf: src.VTProf, DebugPprof: o.ServePprof,
		})
		if err != nil {
			return err
		}
		o.srv = srv
		fmt.Fprintf(stderr, "%s: serving introspection on %s\n", o.cmd, srv.URL())
	}
	return nil
}

// Recorder is the run's recorder (nil when nothing asked for one).
func (o *Obs) Recorder() *obs.Recorder { return o.rec }

// Finish seals the ledger sink and exports the run: the Chrome trace, the
// metrics snapshot (stdout and/or file) and the -vtprof profiles; then,
// while serving, it lingers until -serve-linger passes, ctx ends or Ctrl-C
// arrives. With -ledger-out the trace renders the sealed file, which holds
// every epoch; the in-memory ledger keeps only its newest DefaultTailRing
// records once a sink is attached. That render holds the whole file in
// memory, so its cost grows with the run's epoch count. A failed sink does
// not stop the exports: the trace falls back to the in-memory ledger, whose
// epochs_dropped counts what it lacks, and the sink's error is returned
// with any export error. An error is a failed run (exit 1).
func (o *Obs) Finish(ctx context.Context, stdout io.Writer) error {
	var sinkErr error
	if err := o.rec.CloseSink(); err != nil {
		sinkErr = fmt.Errorf("ledger sink: %w", err)
	}
	if err := o.export(stdout, o.LedgerOut != "" && sinkErr == nil); err != nil {
		return errors.Join(sinkErr, err)
	}
	if o.srv != nil && o.Linger > 0 {
		// Keep the introspection plane queryable after the run so smoke
		// tests and dashboards can take a final reading.
		fmt.Fprintf(o.stderr, "%s: introspection server lingering %s (Ctrl-C to stop)\n", o.cmd, o.Linger)
		ctx, stop := signal.NotifyContext(ctx, os.Interrupt)
		defer stop()
		select {
		case <-ctx.Done():
		case <-time.After(o.Linger):
		}
	}
	return sinkErr
}

// export writes the trace, the metrics and the profiles the flags ask for,
// stopping at the first error. fromFile renders the trace from the sealed
// -ledger-out file instead of the in-memory ledger.
func (o *Obs) export(stdout io.Writer, fromFile bool) error {
	if o.Trace != "" {
		var ledger []obs.EpochRecord
		var err error
		if fromFile {
			ledger, err = obs.ReadLedger(o.LedgerOut)
		} else {
			ledger = o.rec.Ledger()
		}
		if err == nil {
			err = writeFile(o.Trace, func(w io.Writer) error { return o.rec.WriteChromeTrace(w, ledger) })
		}
		if err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	if o.Metrics {
		if err := o.rec.WriteMetricsJSON(stdout); err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
	}
	if o.MetricsOut != "" {
		if err := writeFile(o.MetricsOut, o.rec.WriteMetricsJSON); err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
	}
	if o.VTProf != "" {
		if err := writeProfiles(o.VTProf, o.profiles); err != nil {
			return fmt.Errorf("-vtprof: %w", err)
		}
	}
	return nil
}

// Close releases what Start set up: it stops the server and seals the
// ledger sink if Finish did not.
func (o *Obs) Close() {
	if o.srv != nil {
		o.srv.Close()
	}
	if err := o.rec.CloseSink(); err != nil {
		fmt.Fprintf(o.stderr, "%s: closing ledger sink: %v\n", o.cmd, err)
	}
}

// NVMProfiles resolves a -nvm-profile value, a comma list of calibrated
// profile names, against the machine registry; the error names the flag and
// the known profiles.
func NVMProfiles(csv string) ([]string, error) {
	var names []string
	for _, s := range strings.Split(csv, ",") {
		name := strings.TrimSpace(s)
		if _, err := machine.NVMProfileByName(name); err != nil {
			return nil, fmt.Errorf("-nvm-profile: %w", err)
		}
		names = append(names, name)
	}
	return names, nil
}

// writeProfiles writes <stem>.pb.gz (pprof protobuf, `go tool pprof`
// loadable) and <stem>.folded (folded stacks, flamegraph.pl input) into dir
// for every profile.
func writeProfiles(dir string, profiles iter.Seq2[string, *vtprof.Profile]) error {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	for stem, p := range profiles {
		pb, err := p.PprofBytes()
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, stem+".pb.gz"), pb, 0o666); err != nil {
			return err
		}
		if err := writeFile(filepath.Join(dir, stem+".folded"), p.WriteFolded); err != nil {
			return err
		}
	}
	return nil
}

// writeFile creates path and fills it with write, reporting the first error.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
