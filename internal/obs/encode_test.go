package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unicode/utf8"

	"github.com/quartz-emu/quartz/internal/sim"
)

// TestAppendJSONRecordMatchesStdlib is the contract behind the zero-alloc
// JSONL encoder: its output must be byte-identical to json.Marshal for any
// EpochRecord, so readers (jq, DecodeLedger, external tooling) cannot tell
// the encoders apart. Exercises omitempty boundaries, the float formatting
// regimes, and strings that need escaping.
func TestAppendJSONRecordMatchesStdlib(t *testing.T) {
	floats := []float64{
		0, 1, -1, 0.1, -0.25, 1.5e6, 11000,
		1e-6, 9.999e-7, 1e-7, -1e-7, 5e-7, // 'f'→'e' boundary below 1e-6
		1e21, 9.99e20, -1e21, 2.5e22, // 'f'→'e' boundary at 1e21
		1e-9, -3.25e-12, 1e300, 4.9e-324, math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	strs := []string{
		"", "main", "worker-12", "bench",
		`quo"te`, `back\slash`, "<html>&", "line\nbreak", "tab\there",
		"\x00ctl", "caf\u00e9", "\u2028sep", "emoji \U0001F600",
	}
	rng := rand.New(rand.NewSource(1))
	check := func(rec EpochRecord) {
		t.Helper()
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("json.Marshal: %v", err)
		}
		got := appendJSONRecord(nil, rec)
		if !bytes.Equal(got, want) {
			t.Errorf("encoder mismatch for %+v:\n got %s\nwant %s", rec, got, want)
		}
	}

	check(EpochRecord{}) // every omitempty field at its zero value
	for i := 0; i < 500; i++ {
		rec := EpochRecord{
			Seq:            rng.Uint64(),
			PID:            rng.Intn(100),
			TID:            rng.Intn(64) - 2,
			Thread:         strs[rng.Intn(len(strs))],
			Start:          sim.Time(rng.Int63n(1e15)),
			End:            sim.Time(rng.Int63n(1e15)),
			Reason:         []string{"max", "sync", "end"}[rng.Intn(3)],
			StallCycles:    rng.Uint64() >> uint(rng.Intn(64)),
			L3Hit:          uint64(rng.Int63n(1e9)),
			L3MissLocal:    uint64(rng.Int63n(1e9)),
			L3MissRemote:   uint64(rng.Int63n(3)) * uint64(rng.Int63n(1e9)),
			LDMStallCycles: floats[rng.Intn(len(floats))],
			Stores:         uint64(rng.Int63n(2)) * uint64(rng.Int63n(1e9)),
			StoreMissLocal: uint64(rng.Int63n(2)) * uint64(rng.Int63n(1e9)),
			StoreMissRem:   uint64(rng.Int63n(3)) * uint64(rng.Int63n(1e9)),
			WriteDelay:     sim.Time(rng.Int63n(2)) * sim.Time(rng.Int63n(1e12)),
			Delay:          sim.Time(rng.Int63n(1e12)),
			Injected:       sim.Time(rng.Int63n(1e12)),
			InjectStart:    sim.Time(rng.Int63n(2)) * sim.Time(rng.Int63n(1e15)),
			InjectEnd:      sim.Time(rng.Int63n(2)) * sim.Time(rng.Int63n(1e15)),
			Overhead:       sim.Time(rng.Int63n(1e9)),
			Carry:          sim.Time(rng.Int63n(1e9) - 5e8),
		}
		check(rec)
	}
	// Random float bit patterns, skipping the NaN/Inf space json refuses.
	for i := 0; i < 2000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		check(EpochRecord{LDMStallCycles: f, Reason: "max"})
	}
}

// FuzzLedgerJSONL drives the one ledger codec with fuzzed strings,
// integers and floats: the hand-rolled encoder must match json.Marshal byte
// for byte, and DecodeLedger must give the record back. NaN and Inf are
// skipped (the encoder refuses them by design, as json.Marshal does), and
// so is the round trip of invalid UTF-8, which JSON replaces with U+FFFD.
func FuzzLedgerJSONL(f *testing.F) {
	f.Add(uint64(0), 0, "", "max", int64(0), int64(0), uint64(0), uint64(0), 0.0)
	f.Add(uint64(7), 3, "worker-1", "sync", int64(1e12), int64(-5), uint64(1<<63), uint64(9), 1.5e-7)
	f.Add(uint64(1<<60), -2, "<q\"u\\o>&\n", "caf\u00e9 \U0001F600", int64(-1<<62), int64(1<<62), uint64(3), uint64(1), 1e21)
	f.Add(uint64(1), 1, "\xff\x00", "\u2028", int64(1), int64(1), uint64(0), uint64(0), -0.0)
	f.Fuzz(func(t *testing.T, seq uint64, id int, thread, reason string,
		start, delay int64, stall, stores uint64, ldm float64) {
		if math.IsNaN(ldm) || math.IsInf(ldm, 0) {
			t.Skip()
		}
		// The optional fields follow the fuzzed values, so both sides of
		// every omitempty boundary get covered.
		rec := EpochRecord{
			Seq: seq, PID: id, TID: -id, Thread: thread,
			Start: sim.Time(start), End: sim.Time(start + delay), Reason: reason,
			StallCycles: stall, L3Hit: stall >> 3, L3MissLocal: stores,
			L3MissRemote: stall % 3, LDMStallCycles: ldm,
			Stores: stores, StoreMissLocal: stores >> 1, StoreMissRem: stores % 5,
			Delay: sim.Time(delay), WriteDelay: sim.Time(delay % 3), Injected: sim.Time(delay / 2),
			InjectStart: sim.Time(start % 7), InjectEnd: sim.Time(start / 3),
			Overhead: sim.Time(stall % 11), Carry: sim.Time(-delay),
		}
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("json.Marshal: %v", err)
		}
		line := appendJSONRecord(nil, rec)
		if !bytes.Equal(line, want) {
			t.Fatalf("encoder mismatch:\n got %s\nwant %s", line, want)
		}
		if !utf8.ValidString(thread) || !utf8.ValidString(reason) {
			return
		}
		got, err := DecodeLedger(bytes.NewReader(append(line, '\n')))
		if err != nil {
			t.Fatalf("DecodeLedger(%s): %v", line, err)
		}
		if len(got) != 1 || !reflect.DeepEqual(got[0], rec) {
			t.Fatalf("round trip of %s:\n got %+v\nwant %+v", line, got, rec)
		}
	})
}

// TestLedgerAppendNoAllocs is the allocation gate for the sink-attached
// epoch-close path: once the tail ring and encoder scratch have reached
// steady state, appending a record must not allocate.
func TestLedgerAppendNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	t.Run("jsonl", func(t *testing.T) {
		r := New(0)
		if err := r.AttachSink(NewWriterSink(discard{}, FormatJSONL), 64); err != nil {
			t.Fatal(err)
		}
		// Warm up: fill the tail ring and grow the encoder scratch.
		for i := 0; i < 256; i++ {
			r.EpochClosed(benchRecord)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			r.EpochClosed(benchRecord)
		}); allocs != 0 {
			t.Errorf("steady-state EpochClosed with a sink: %v allocs/op, want 0", allocs)
		}
		if err := r.CloseSink(); err != nil {
			t.Fatal(err)
		}
		if err := r.SinkErr(); err != nil {
			t.Fatal(err)
		}
	})
}
