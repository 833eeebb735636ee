// Package obs is the emulator's observability layer: a low-overhead epoch
// ledger, an aggregated metrics registry, a Chrome trace-event exporter,
// streaming ledger sinks, and a live event stream.
//
// Quartz's value is explaining where emulated time goes — per-epoch stall
// cycles, the Eq. 2/3 delay derivation, min/max-epoch truncation, and the
// amortization carry — so the instrumentation that computes those quantities
// must be inspectable. This package provides these surfaces:
//
//   - the epoch ledger: one EpochRecord per closed epoch, in global close
//     order, carrying the trigger, the raw counter deltas, the computed
//     LDM_STALL, and the injected/amortized delay split;
//   - the metrics registry (registry.go): expvar-style named counters,
//     gauges and histograms covering epochs, delays, suppressions, runner
//     job outcomes and simulation-kernel activity, exported as one JSON
//     snapshot with p50/p95/p99 summaries;
//   - the Chrome trace exporter (chrome.go): the ledger rendered as a
//     trace-event JSON file loadable in chrome://tracing or Perfetto, with
//     epochs as slices and delay injections as flow-connected slices;
//   - the ledger sink (sink.go): JSONL streaming of every epoch record to
//     disk, removing the in-memory retention bound;
//   - the event stream (events.go): a non-blocking fan-out of epoch closes,
//     delay injections, throttle programmings and job completions, feeding
//     the HTTP introspection plane (internal/obs/obshttp).
//
// The entry point is the Recorder. A nil *Recorder is valid and records
// nothing: every method nil-checks its receiver, so instrumented code calls
// unconditionally and the disabled path costs one predictable branch. All
// methods are safe for concurrent use — the experiment runner executes many
// independent simulations in parallel against one shared recorder.
package obs

import (
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/quartz-emu/quartz/internal/sim"
)

// DefaultLedgerLimit bounds the ledger when New is called with limit <= 0
// and no sink is attached. At ~200 bytes per record this caps ledger memory
// near 100 MB; longer runs keep the oldest records and count the newer ones
// as dropped. Attaching a LedgerSink removes the bound entirely (the full
// ledger streams to the sink) and memory keeps only a DefaultTailRing-sized
// tail.
const DefaultLedgerLimit = 1 << 19

// DefaultTailRing is the number of newest records kept in memory for live
// tail queries (Recorder.LedgerSince, the /ledger endpoint) once a sink is
// attached.
const DefaultTailRing = 4096

// EpochRecord is one closed epoch as the emulator core observed it. The
// JSON field names are the JSONL sink / HTTP ledger schema; virtual times
// are femtoseconds (the sim.Time unit), suffixed _fs.
type EpochRecord struct {
	// Seq is the global close order (0-based) assigned by the recorder.
	Seq uint64 `json:"seq"`
	// PID identifies the emulated process (one RegisterProcess call);
	// parallel experiment jobs get distinct PIDs.
	PID int `json:"pid"`
	// TID and Thread identify the thread within the process.
	TID    int    `json:"tid"`
	Thread string `json:"thread,omitempty"`

	// Start and End bound the epoch in virtual time. End is the close
	// time, before epoch-processing overhead and delay injection.
	Start sim.Time `json:"start_fs"`
	End   sim.Time `json:"end_fs"`
	// Reason is the close trigger: "max" (monitor signal at maximum epoch
	// length), "sync" (inter-thread communication event), or "end"
	// (explicit close / thread exit).
	Reason string `json:"reason"`

	// Raw Table 1 counter deltas over the epoch.
	StallCycles  uint64 `json:"stall_cycles"`
	L3Hit        uint64 `json:"l3_hit"`
	L3MissLocal  uint64 `json:"l3_miss_local"`
	L3MissRemote uint64 `json:"l3_miss_remote,omitempty"`

	// Store-side counter deltas (asymmetric write model, doc/asymmetry.md).
	// Zero — and omitted from the JSONL schema — when the store model is
	// disabled, keeping symmetric-configuration ledgers byte-identical.
	Stores         uint64 `json:"stores,omitempty"`
	StoreMissLocal uint64 `json:"store_miss_local,omitempty"`
	StoreMissRem   uint64 `json:"store_miss_remote,omitempty"`

	// LDMStallCycles is Eq. 3's memory-attributable stall extraction (after
	// the Eq. 4 remote split in two-memory mode).
	LDMStallCycles float64 `json:"ldm_stall_cycles"`

	// Delay is the model-computed delay (Eq. 1 or Eq. 2) for this epoch;
	// Injected is what was actually spun after overhead amortization.
	// Injected < Delay means the difference amortized accumulated overhead;
	// Injected == 0 with Delay > 0 also covers switched-off-injection mode.
	Delay sim.Time `json:"delay_fs"`
	// WriteDelay is the store-model component included in Delay (zero and
	// omitted when the asymmetric model is disabled).
	WriteDelay sim.Time `json:"write_delay_fs,omitempty"`
	Injected   sim.Time `json:"injected_fs"`
	// InjectStart/InjectEnd bound the injection spin in virtual time
	// (zero when nothing was injected).
	InjectStart sim.Time `json:"inject_start_fs,omitempty"`
	InjectEnd   sim.Time `json:"inject_end_fs,omitempty"`
	// Overhead is the epoch-processing cost charged at this close; Carry is
	// the unamortized overhead outstanding after this epoch.
	Overhead sim.Time `json:"overhead_fs"`
	Carry    sim.Time `json:"carry_fs"`
}

// Len reports the epoch's length in virtual time.
func (e EpochRecord) Len() sim.Time { return e.End - e.Start }

// Recorder collects epoch records and metrics for one run (or one parallel
// suite of runs). The zero value is not used directly; construct with New.
// A nil *Recorder is a valid no-op sink.
// hotMetrics caches the handles of the metrics the per-epoch paths touch.
// Registry.Counter/Histogram take a mutex and allocate when the name is
// built by concatenation, so the steady-state recording path resolves every
// fixed name once (in New) and reaches the atomics directly afterwards.
type hotMetrics struct {
	epochsClosed   *Counter
	reasonMax      *Counter
	reasonSync     *Counter
	reasonEnd      *Counter
	delayComputed  *Counter
	delayInjected  *Counter
	delayWithheld  *Counter
	overheadEpoch  *Counter
	epochLen       *Histogram
	epochDelay     *Histogram
	epochStall     *Histogram
	suppressedSync *Counter
	suppressedMax  *Counter
	contendedWaits *Counter
}

func newHotMetrics(reg *Registry) hotMetrics {
	return hotMetrics{
		epochsClosed:   reg.Counter("quartz.epochs.closed"),
		reasonMax:      reg.Counter("quartz.epochs.reason.max"),
		reasonSync:     reg.Counter("quartz.epochs.reason.sync"),
		reasonEnd:      reg.Counter("quartz.epochs.reason.end"),
		delayComputed:  reg.Counter("quartz.delay.computed_ns"),
		delayInjected:  reg.Counter("quartz.delay.injected_ns"),
		delayWithheld:  reg.Counter("quartz.delay.withheld_ns"),
		overheadEpoch:  reg.Counter("quartz.overhead.epoch_ns"),
		epochLen:       reg.Histogram("quartz.epoch.len_ns"),
		epochDelay:     reg.Histogram("quartz.epoch.delay_ns"),
		epochStall:     reg.Histogram("quartz.epoch.stall_cycles"),
		suppressedSync: reg.Counter("quartz.epochs.suppressed.sync"),
		suppressedMax:  reg.Counter("quartz.epochs.suppressed.max"),
		contendedWaits: reg.Counter("simos.sync.contended_waits"),
	}
}

// reasonCounter maps a close-trigger string to its cached counter; unknown
// reasons (none exist today) fall back to the registry's concat path.
func (h *hotMetrics) reasonCounter(reg *Registry, reason string) *Counter {
	switch reason {
	case "max":
		return h.reasonMax
	case "sync":
		return h.reasonSync
	case "end":
		return h.reasonEnd
	}
	return reg.Counter("quartz.epochs.reason." + reason)
}

type Recorder struct {
	reg *Registry
	hot hotMetrics
	hub eventHub

	mu     sync.Mutex
	ledger []EpochRecord
	// start is the ring head (index of the oldest retained record) once the
	// ledger operates as a circular tail buffer (sink attached and ring
	// full); 0 in append mode.
	start int
	// ringCap caps the tail ring when a sink is attached; limit bounds the
	// append-mode ledger when none is.
	ringCap  int
	limit    int
	total    uint64
	sink     LedgerSink
	sinkErr  error
	streamed bool // a sink was attached at some point: nothing was dropped
	procs    []string
}

// New creates a recorder whose in-memory ledger keeps at most limit records
// (limit <= 0 selects DefaultLedgerLimit). Attaching a LedgerSink
// (AttachSink) lifts the bound by streaming every record out.
func New(limit int) *Recorder {
	if limit <= 0 {
		limit = DefaultLedgerLimit
	}
	reg := NewRegistry()
	return &Recorder{reg: reg, hot: newHotMetrics(reg), limit: limit}
}

// Enabled reports whether r actually records (false for nil).
func (r *Recorder) Enabled() bool { return r != nil }

// Registry returns the metrics registry (nil for a nil recorder).
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// RegisterProcess allocates a trace PID for one emulated process and
// associates it with a display label. It returns 0 on a nil recorder.
func (r *Recorder) RegisterProcess(label string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.procs = append(r.procs, label)
	return len(r.procs)
}

// AttachSink streams every epoch record to s, removing the in-memory
// retention bound: the complete ledger lives in the sink and memory keeps
// only the newest ringSize records (<= 0 selects DefaultTailRing) for tail
// queries. Records already retained are flushed to the sink first, so the
// sink always holds the full ledger from Seq 0 — attach before the run for
// that to be every record ever closed. The first sink error is latched
// (SinkErr); recording continues in memory-tail-only mode after an error.
func (r *Recorder) AttachSink(s LedgerSink, ringSize int) error {
	if r == nil || s == nil {
		return nil
	}
	if ringSize <= 0 {
		ringSize = DefaultTailRing
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	retained := r.ledgerLocked()
	for _, rec := range retained {
		if err := s.Append(rec); err != nil {
			return err
		}
	}
	// Convert to the tail ring, keeping the newest ringSize records.
	if len(retained) > ringSize {
		retained = retained[len(retained)-ringSize:]
	}
	ring := make([]EpochRecord, 0, ringSize)
	r.ledger = append(ring, retained...)
	r.start = 0
	r.ringCap = ringSize
	r.sink = s
	r.streamed = true
	return nil
}

// CloseSink detaches and closes the attached sink (flushing buffered
// records), returning the first error the sink reported during the run, or
// the close error. It is a no-op when no sink is attached.
func (r *Recorder) CloseSink() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	s := r.sink
	err := r.sinkErr
	r.sink = nil
	r.mu.Unlock()
	if s == nil {
		return err
	}
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	return err
}

// SinkErr reports the first error the attached sink returned from Append
// (nil while streaming is healthy).
func (r *Recorder) SinkErr() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sinkErr
}

// EpochClosed appends one closed epoch to the ledger (assigning rec.Seq)
// and folds it into the aggregate metrics. With a sink attached the record
// also streams to the sink and the in-memory ledger keeps only the newest
// tail; without one, records past the limit are counted as dropped but the
// metrics still aggregate them.
func (r *Recorder) EpochClosed(rec EpochRecord) {
	if r == nil {
		return
	}
	r.mu.Lock()
	rec.Seq = r.total
	r.total++
	if r.sink != nil {
		if err := r.sink.Append(rec); err != nil && r.sinkErr == nil {
			r.sinkErr = err
		}
	}
	switch {
	case r.ringCap > 0: // tail ring (sink attached now or earlier)
		if len(r.ledger) < r.ringCap {
			r.ledger = append(r.ledger, rec)
		} else {
			r.ledger[r.start] = rec
			r.start++
			if r.start == len(r.ledger) {
				r.start = 0
			}
		}
	case len(r.ledger) < r.limit:
		r.ledger = append(r.ledger, rec)
	}
	// Publish under the ledger mutex so event order equals ledger order.
	r.epochEvents(rec)
	r.mu.Unlock()

	r.hot.epochsClosed.Add(1)
	r.hot.reasonCounter(r.reg, rec.Reason).Add(1)
	r.hot.delayComputed.Add(ns(rec.Delay))
	r.hot.delayInjected.Add(ns(rec.Injected))
	if rec.Delay > rec.Injected {
		r.hot.delayWithheld.Add(ns(rec.Delay - rec.Injected))
	}
	r.hot.overheadEpoch.Add(ns(rec.Overhead))
	r.hot.epochLen.Observe(ns(rec.Len()))
	r.hot.epochDelay.Observe(ns(rec.Delay))
	r.hot.epochStall.Observe(int64(rec.StallCycles))
}

// EpochSuppressed counts an epoch-close trigger that was ignored because
// the epoch was still below the minimum length. Trigger is "sync" (a
// synchronization event arrived early) or "max" (the monitor's signal
// landed after the epoch was already reset — wake-up drift).
func (r *Recorder) EpochSuppressed(trigger string) {
	if r == nil {
		return
	}
	switch trigger {
	case "sync":
		r.hot.suppressedSync.Add(1)
	case "max":
		r.hot.suppressedMax.Add(1)
	default:
		r.reg.Counter("quartz.epochs.suppressed." + trigger).Add(1)
	}
}

// ContendedWait counts a thread blocking on an already-held lock — the
// inter-thread communication events whose epoch closes propagate delay.
func (r *Recorder) ContendedWait() {
	if r == nil {
		return
	}
	r.hot.contendedWaits.Add(1)
}

// KernelRun folds one finished simulation kernel's scheduler statistics
// into the aggregate metrics.
func (r *Recorder) KernelRun(ks sim.KernelStats) {
	if r == nil {
		return
	}
	r.reg.Counter("sim.kernels").Add(1)
	r.reg.Counter("sim.coros_spawned").Add(int64(ks.Spawned))
	r.reg.Counter("sim.coros_finished").Add(int64(ks.Finished))
	r.reg.Counter("sim.dispatches").Add(int64(ks.Dispatches))
	r.reg.Histogram("sim.max_runqueue").Observe(int64(ks.MaxQueue))
}

// ThrottleProgrammed counts one DRAM thermal-control register write on the
// given path ("read" or "write") — the Fig. 8 knob Quartz programs to
// emulate NVM bandwidth.
func (r *Recorder) ThrottleProgrammed(path string) {
	if r == nil {
		return
	}
	r.reg.Counter("mem.throttle.programmed." + path).Add(1)
	r.hub.publish(Event{Kind: "throttle", Path: path})
}

// BucketRefill counts one token-bucket refill on the given path: the
// recomputation of a controller's per-access channel occupancy that a
// throttle-register write triggers.
func (r *Recorder) BucketRefill(path string) {
	if r == nil {
		return
	}
	r.reg.Counter("mem.bucket.refills." + path).Add(1)
}

// JobDone records one experiment-runner job outcome. jobID names the job
// for the event stream; it does not affect the aggregated metrics.
func (r *Recorder) JobDone(jobID, status string, wall time.Duration) {
	if r == nil {
		return
	}
	r.reg.Counter("runner.jobs." + status).Add(1)
	r.reg.Histogram("runner.job_wall_ms").Observe(wall.Milliseconds())
	r.hub.publish(Event{
		Kind: "job", Job: jobID, Status: status,
		WallMS: float64(wall.Microseconds()) / 1e3,
	})
}

// TrafficProgress publishes one traffic-scenario progress event and refreshes
// the quartz.traffic.* live gauges: the scenario's measured-op progress plus
// the measurement window's running throughput and p99 latency (simulated
// time). The traffic engine calls it periodically during the measured phase
// and once at scenario completion.
func (r *Recorder) TrafficProgress(scenario, mix string, clients int, done, total int64, opsPerSec, p99NS float64) {
	if r == nil {
		return
	}
	r.reg.Gauge("quartz.traffic.clients").Set(float64(clients))
	r.reg.Gauge("quartz.traffic.done").Set(float64(done))
	r.reg.Gauge("quartz.traffic.total_ops").Set(float64(total))
	r.reg.Gauge("quartz.traffic.ops_per_sec").Set(opsPerSec)
	r.reg.Gauge("quartz.traffic.p99_ns").Set(p99NS)
	r.hub.publish(Event{
		Kind: "traffic", Scenario: scenario, Mix: mix, Clients: clients,
		Done: done, TotalOps: total, OpsPerSec: opsPerSec, P99NS: p99NS,
	})
}

// ledgerLocked returns the retained records in Seq order. Caller holds r.mu.
func (r *Recorder) ledgerLocked() []EpochRecord {
	out := make([]EpochRecord, 0, len(r.ledger))
	out = append(out, r.ledger[r.start:]...)
	return append(out, r.ledger[:r.start]...)
}

// Ledger returns a copy of the retained epoch records in close order.
func (r *Recorder) Ledger() []EpochRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ledgerLocked()
}

// LedgerSince returns a copy of at most maxRecs retained records with
// Seq >= since, in close order, plus the total number of epochs ever closed.
// When since predates the oldest retained record the result starts at the
// oldest one (its Seq exceeds since — that gap is how callers detect
// truncation; the full ledger is in the sink, if one is attached). Only the
// returned records are copied, so a poll costs O(maxRecs + log retained) under
// the ledger mutex however large the retained ledger is.
func (r *Recorder) LedgerSince(since uint64, maxRecs int) (recs []EpochRecord, total uint64) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// The retained records in Seq order are old then young: the ring from
	// its head, then the wrapped part before it.
	old, young := r.ledger[r.start:], r.ledger[:r.start]
	idx := sort.Search(len(r.ledger), func(i int) bool {
		if i < len(old) {
			return old[i].Seq >= since
		}
		return young[i-len(old)].Seq >= since
	})
	if idx < len(old) {
		old = old[idx:]
	} else {
		old, young = nil, young[idx-len(old):]
	}
	n := max(0, min(maxRecs, len(old)+len(young)))
	recs = make([]EpochRecord, 0, n)
	recs = append(recs, old[:min(n, len(old))]...)
	recs = append(recs, young[:n-len(recs)]...)
	return recs, r.total
}

// Total reports how many epochs have ever been closed against r.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped reports how many epoch records were discarded because the bounded
// in-memory ledger was full (their metrics were still aggregated). It is
// always 0 once a sink has been attached: the sink holds every record and
// the in-memory ledger is just a tail cache.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.droppedLocked()
}

// droppedLocked computes the dropped count. Caller holds r.mu.
func (r *Recorder) droppedLocked() int64 {
	if r.streamed {
		return 0
	}
	return int64(r.total) - int64(len(r.ledger))
}

// snapshotLedger copies the ledger state for exporters.
func (r *Recorder) snapshotLedger() (ledger []EpochRecord, procs []string, dropped int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ledgerLocked(), append([]string(nil), r.procs...), r.droppedLocked()
}

// WriteMetricsJSON writes the metrics snapshot as indented JSON. It is a
// no-op on a nil recorder.
func (r *Recorder) WriteMetricsJSON(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	dropped := r.droppedLocked()
	retained := len(r.ledger)
	total := r.total
	r.mu.Unlock()
	r.reg.Gauge("obs.ledger.retained").Set(float64(retained))
	r.reg.Gauge("obs.ledger.dropped").Set(float64(dropped))
	r.reg.Gauge("obs.ledger.total").Set(float64(total))
	r.reg.Gauge("obs.events.dropped").Set(float64(r.hub.dropped.Load()))
	return r.reg.WriteJSON(w)
}

// ns converts virtual time to integer nanoseconds for metric accumulation.
func ns(t sim.Time) int64 { return int64(t / sim.Nanosecond) }

// defaultRecorder is the process-global recorder CLIs install so that
// emulators assembled deep inside experiment jobs attach to it without
// threading a handle through every constructor.
var defaultRecorder atomic.Pointer[Recorder]

// SetDefault installs (or, with nil, clears) the global default recorder
// that core.Attach falls back to when its Config carries no Observer.
func SetDefault(r *Recorder) { defaultRecorder.Store(r) }

// Default returns the global default recorder, or nil when none is set.
func Default() *Recorder { return defaultRecorder.Load() }
