package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"github.com/quartz-emu/quartz/internal/sim"
)

// chromeEvent is one entry of the Chrome trace-event format (the JSON
// schema chrome://tracing and Perfetto load). Timestamps and durations are
// microseconds; fractional values carry the sub-microsecond precision of
// the femtosecond virtual clock.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	ID   *uint64        `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level trace-file object.
type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// us converts virtual time (femtoseconds) to trace microseconds.
func us(t sim.Time) float64 { return float64(t) / 1e9 }

// WriteChromeTrace renders ledger, a run's epoch records in close order,
// as a Chrome trace-event JSON file: every closed epoch is a complete slice
// on its thread's track, every delay injection is a separate "inject" slice
// linked to its epoch by a flow arrow, and process/thread metadata names the
// tracks. Virtual time maps to trace time, so one trace can hold many
// parallel emulated processes (distinct PIDs) without collision. The
// records come from the caller: r.Ledger() for an in-memory ledger, or
// ReadLedger for the complete one a file sink wrote. The trace's
// epochs_dropped is how many of r's closed epochs ledger lacks.
//
// It is a no-op on a nil recorder.
func (r *Recorder) WriteChromeTrace(w io.Writer, ledger []EpochRecord) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	procs := append([]string(nil), r.procs...)
	dropped := max(0, int64(r.total)-int64(len(ledger)))
	r.mu.Unlock()

	events := make([]chromeEvent, 0, 2*len(ledger)+len(procs))

	// Process metadata: name each PID's track after its RegisterProcess
	// label. PID 0 collects records from emulators attached without a
	// recorder-registered process (not expected, but representable).
	for i, label := range procs {
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", PID: i + 1,
			Args: map[string]any{"name": label},
		})
	}

	// Thread metadata, first appearance order.
	type threadKey struct {
		pid, tid int
	}
	seen := make(map[threadKey]bool)
	for _, rec := range ledger {
		k := threadKey{rec.PID, rec.TID}
		if seen[k] {
			continue
		}
		seen[k] = true
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", PID: rec.PID, TID: rec.TID,
			Args: map[string]any{"name": rec.Thread},
		})
	}

	for i := range ledger {
		rec := &ledger[i]
		dur := us(rec.Len())
		events = append(events, chromeEvent{
			Name: "epoch/" + rec.Reason,
			Cat:  "epoch",
			Ph:   "X",
			TS:   us(rec.Start),
			Dur:  &dur,
			PID:  rec.PID,
			TID:  rec.TID,
			Args: map[string]any{
				"seq":              rec.Seq,
				"reason":           rec.Reason,
				"stall_cycles":     rec.StallCycles,
				"l3_hit":           rec.L3Hit,
				"l3_miss_local":    rec.L3MissLocal,
				"l3_miss_remote":   rec.L3MissRemote,
				"ldm_stall_cycles": rec.LDMStallCycles,
				"delay_ns":         rec.Delay.Nanoseconds(),
				"injected_ns":      rec.Injected.Nanoseconds(),
				"overhead_ns":      rec.Overhead.Nanoseconds(),
				"carry_ns":         rec.Carry.Nanoseconds(),
			},
		})
		if rec.Injected <= 0 {
			continue
		}
		injDur := us(rec.InjectEnd - rec.InjectStart)
		seq := rec.Seq
		events = append(events,
			chromeEvent{
				Name: "inject",
				Cat:  "inject",
				Ph:   "X",
				TS:   us(rec.InjectStart),
				Dur:  &injDur,
				PID:  rec.PID,
				TID:  rec.TID,
				Args: map[string]any{
					"seq":         rec.Seq,
					"injected_ns": rec.Injected.Nanoseconds(),
				},
			},
			// Flow arrow: epoch close -> its delay injection.
			chromeEvent{
				Name: "delay", Cat: "inject", Ph: "s", ID: &seq,
				TS: us(rec.End), PID: rec.PID, TID: rec.TID,
			},
			chromeEvent{
				Name: "delay", Cat: "inject", Ph: "f", ID: &seq, BP: "e",
				TS: us(rec.InjectStart), PID: rec.PID, TID: rec.TID,
			},
		)
	}

	// Stable output: metadata first, then events by (ts, pid, tid, ph).
	sort.SliceStable(events, func(i, j int) bool {
		mi, mj := events[i].Ph == "M", events[j].Ph == "M"
		if mi != mj {
			return mi
		}
		if mi {
			return false // keep metadata insertion order
		}
		if events[i].TS != events[j].TS {
			return events[i].TS < events[j].TS
		}
		if events[i].PID != events[j].PID {
			return events[i].PID < events[j].PID
		}
		return events[i].TID < events[j].TID
	})

	tr := chromeTrace{
		TraceEvents:     events,
		DisplayTimeUnit: "ns",
		OtherData: map[string]any{
			"source":          "quartz internal/obs",
			"epochs_retained": len(ledger),
			"epochs_dropped":  dropped,
		},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(tr); err != nil {
		return fmt.Errorf("obs: writing chrome trace: %w", err)
	}
	return nil
}
