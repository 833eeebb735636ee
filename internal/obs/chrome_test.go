package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/quartz-emu/quartz/internal/sim"
)

// buildFixedRecorder assembles a deterministic two-epoch recorder used by
// the golden and structural trace tests.
func buildFixedRecorder() *Recorder {
	r := New(0)
	pid := r.RegisterProcess("quartz test (NVM 500ns)")
	r.EpochClosed(EpochRecord{
		PID: pid, TID: 0, Thread: "main",
		Start: 0, End: 2 * sim.Microsecond,
		Reason:      "sync",
		StallCycles: 1000, L3Hit: 10, L3MissLocal: 90,
		LDMStallCycles: 900,
		Delay:          sim.Microsecond,
		Injected:       sim.Microsecond / 2,
		InjectStart:    2*sim.Microsecond + 10*sim.Nanosecond,
		InjectEnd:      2*sim.Microsecond + 510*sim.Nanosecond,
		Overhead:       100 * sim.Nanosecond,
		Carry:          0,
	})
	r.EpochClosed(EpochRecord{
		PID: pid, TID: 1, Thread: "worker-1",
		Start: sim.Microsecond, End: 4 * sim.Microsecond,
		Reason:      "max",
		StallCycles: 50, L3Hit: 40, L3MissLocal: 5,
		LDMStallCycles: 20,
		Delay:          0,
		Overhead:       100 * sim.Nanosecond,
		Carry:          100 * sim.Nanosecond,
	})
	return r
}

// TestChromeTraceGolden locks the exporter's output byte-for-byte: viewers
// are external, so format drift must be a conscious decision (update the
// golden when changing the exporter deliberately).
func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	fixed := buildFixedRecorder()
	if err := fixed.WriteChromeTrace(&buf, fixed.Ledger()); err != nil {
		t.Fatal(err)
	}
	const golden = `{
 "traceEvents": [
  {
   "name": "process_name",
   "ph": "M",
   "ts": 0,
   "pid": 1,
   "tid": 0,
   "args": {
    "name": "quartz test (NVM 500ns)"
   }
  },
  {
   "name": "thread_name",
   "ph": "M",
   "ts": 0,
   "pid": 1,
   "tid": 0,
   "args": {
    "name": "main"
   }
  },
  {
   "name": "thread_name",
   "ph": "M",
   "ts": 0,
   "pid": 1,
   "tid": 1,
   "args": {
    "name": "worker-1"
   }
  },
  {
   "name": "epoch/sync",
   "cat": "epoch",
   "ph": "X",
   "ts": 0,
   "dur": 2,
   "pid": 1,
   "tid": 0,
   "args": {
    "carry_ns": 0,
    "delay_ns": 1000,
    "injected_ns": 500,
    "l3_hit": 10,
    "l3_miss_local": 90,
    "l3_miss_remote": 0,
    "ldm_stall_cycles": 900,
    "overhead_ns": 100,
    "reason": "sync",
    "seq": 0,
    "stall_cycles": 1000
   }
  },
  {
   "name": "epoch/max",
   "cat": "epoch",
   "ph": "X",
   "ts": 1,
   "dur": 3,
   "pid": 1,
   "tid": 1,
   "args": {
    "carry_ns": 100,
    "delay_ns": 0,
    "injected_ns": 0,
    "l3_hit": 40,
    "l3_miss_local": 5,
    "l3_miss_remote": 0,
    "ldm_stall_cycles": 20,
    "overhead_ns": 100,
    "reason": "max",
    "seq": 1,
    "stall_cycles": 50
   }
  },
  {
   "name": "delay",
   "cat": "inject",
   "ph": "s",
   "ts": 2,
   "pid": 1,
   "tid": 0,
   "id": 0
  },
  {
   "name": "inject",
   "cat": "inject",
   "ph": "X",
   "ts": 2.01,
   "dur": 0.5,
   "pid": 1,
   "tid": 0,
   "args": {
    "injected_ns": 500,
    "seq": 0
   }
  },
  {
   "name": "delay",
   "cat": "inject",
   "ph": "f",
   "ts": 2.01,
   "pid": 1,
   "tid": 0,
   "id": 0,
   "bp": "e"
  }
 ],
 "displayTimeUnit": "ns",
 "otherData": {
  "epochs_dropped": 0,
  "epochs_retained": 2,
  "source": "quartz internal/obs"
 }
}
`
	if buf.String() != golden {
		t.Errorf("chrome trace drifted from golden.\ngot:\n%s", buf.String())
	}
}

// TestChromeTraceStructure validates the parts a viewer depends on without
// pinning bytes: valid JSON, a traceEvents array, slices with durations,
// and a matched flow-event pair per injection.
func TestChromeTraceStructure(t *testing.T) {
	var buf bytes.Buffer
	fixed := buildFixedRecorder()
	if err := fixed.WriteChromeTrace(&buf, fixed.Ledger()); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var slices, flowS, flowF int
	for _, ev := range tr.TraceEvents {
		switch ev["ph"] {
		case "X":
			slices++
			if _, ok := ev["dur"].(float64); !ok {
				t.Errorf("slice without dur: %v", ev)
			}
		case "s":
			flowS++
		case "f":
			flowF++
		}
	}
	if slices != 3 { // 2 epochs + 1 injection
		t.Errorf("slices = %d, want 3", slices)
	}
	if flowS != 1 || flowF != 1 {
		t.Errorf("flow events s/f = %d/%d, want 1/1", flowS, flowF)
	}
}

// TestChromeTraceEmpty: an empty recorder still writes a loadable file
// (traceEvents present and an array, not null).
func TestChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := New(0).WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var tr map[string]any
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if _, ok := tr["traceEvents"].([]any); !ok {
		t.Errorf("traceEvents is not an array: %v", tr["traceEvents"])
	}
}

// TestChromeTraceCountsMissingEpochs: a trace of fewer records than the
// recorder closed, such as the in-memory tail of a streamed ledger, reports
// the shortfall as epochs_dropped.
func TestChromeTraceCountsMissingEpochs(t *testing.T) {
	fixed := buildFixedRecorder()
	var buf bytes.Buffer
	if err := fixed.WriteChromeTrace(&buf, fixed.Ledger()[1:]); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		OtherData struct {
			Retained int `json:"epochs_retained"`
			Dropped  int `json:"epochs_dropped"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.OtherData.Retained != 1 || tr.OtherData.Dropped != 1 {
		t.Errorf("epochs_retained/dropped = %d/%d, want 1/1", tr.OtherData.Retained, tr.OtherData.Dropped)
	}
}
