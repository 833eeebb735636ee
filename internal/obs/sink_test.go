package obs

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/quartz-emu/quartz/internal/sim"
)

// fullRecord returns a record with every field populated, varied by i, so
// round-trip tests cover the whole schema.
func fullRecord(i int) EpochRecord {
	t := sim.Time(i+1) * sim.Millisecond
	return EpochRecord{
		PID: i%3 + 1, TID: i % 5, Thread: fmt.Sprintf("worker-%d", i%4),
		Start: t, End: t + sim.Millisecond,
		Reason:      []string{"max", "sync", "end"}[i%3],
		StallCycles: uint64(1000 * (i + 1)), L3Hit: uint64(10 * i),
		L3MissLocal: uint64(900 + i), L3MissRemote: uint64(i % 7),
		LDMStallCycles: 123.25 * float64(i+1),
		Stores:         uint64(2000 * i), StoreMissLocal: uint64(800 + i),
		StoreMissRem: uint64(i % 5),
		WriteDelay:   sim.Time(i%4) * sim.Microsecond,
		Delay:        sim.Time(i) * sim.Microsecond,
		Injected:     sim.Time(i) * sim.Microsecond / 2,
		InjectStart:  t + sim.Millisecond,
		InjectEnd:    t + sim.Millisecond + sim.Time(i)*sim.Microsecond/2,
		Overhead:     sim.Time(i%10) * sim.Nanosecond,
		Carry:        sim.Time(i%3) * sim.Nanosecond,
	}
}

// TestSinkRoundTrip: write through the recorder, reopen, decode — the
// decoded stream must equal the in-memory ledger.
func TestSinkRoundTrip(t *testing.T) {
	t.Run("jsonl", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "ledger.jsonl")
		sink, err := NewFileSink(path)
		if err != nil {
			t.Fatal(err)
		}
		const n = 100
		r := New(0)
		if err := r.AttachSink(sink, n); err != nil { // ring holds everything
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			r.EpochClosed(fullRecord(i))
		}
		if err := r.CloseSink(); err != nil {
			t.Fatalf("CloseSink: %v", err)
		}
		got, err := ReadLedger(path)
		if err != nil {
			t.Fatalf("ReadLedger: %v", err)
		}
		want := r.Ledger()
		if len(got) != len(want) {
			t.Fatalf("decoded %d records, want %d", len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("record %d round-trip mismatch:\n got %+v\nwant %+v", i, got[i], want[i])
			}
		}
		if err := sink.Append(fullRecord(n)); !errors.Is(err, os.ErrClosed) {
			t.Errorf("Append after Close: %v, want os.ErrClosed", err)
		}
	})
}

// TestSinkRemovesLedgerBound: with a sink attached nothing is ever dropped —
// the sink holds the complete ledger and memory keeps only the tail ring.
func TestSinkRemovesLedgerBound(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	sink, err := NewFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	r := New(0)
	const ring = 16
	const n = 200
	if err := r.AttachSink(sink, ring); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		r.EpochClosed(fullRecord(i))
	}
	if got := r.Dropped(); got != 0 {
		t.Errorf("Dropped = %d with sink attached, want 0", got)
	}
	if got := r.Total(); got != n {
		t.Errorf("Total = %d, want %d", got, n)
	}
	tail := r.Ledger()
	if len(tail) != ring {
		t.Fatalf("in-memory tail has %d records, want ring size %d", len(tail), ring)
	}
	for i, rec := range tail {
		if want := uint64(n - ring + i); rec.Seq != want {
			t.Fatalf("tail[%d].Seq = %d, want %d (newest records retained in order)", i, rec.Seq, want)
		}
	}
	if err := r.CloseSink(); err != nil {
		t.Fatal(err)
	}
	disk, err := ReadLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(disk) != n {
		t.Fatalf("sink holds %d records, want all %d", len(disk), n)
	}
	for i, rec := range disk {
		if rec.Seq != uint64(i) {
			t.Fatalf("disk[%d].Seq = %d: stream must be dense and ordered", i, rec.Seq)
		}
	}
}

// TestAttachSinkFlushesRetained: records closed before the sink attaches
// are flushed into it, so the sink's stream always starts at Seq 0.
func TestAttachSinkFlushesRetained(t *testing.T) {
	r := New(0)
	for i := 0; i < 5; i++ {
		r.EpochClosed(fullRecord(i))
	}
	var buf bytes.Buffer
	if err := r.AttachSink(NewWriterSink(&buf, FormatJSONL), 0); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 8; i++ {
		r.EpochClosed(fullRecord(i))
	}
	if err := r.CloseSink(); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeLedger(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Fatalf("sink has %d records, want 8 (5 pre-attach + 3 post)", len(got))
	}
	for i, rec := range got {
		if rec.Seq != uint64(i) {
			t.Fatalf("record %d has Seq %d", i, rec.Seq)
		}
	}
}

// failSink errors after failAfter appends.
type failSink struct {
	n         int
	failAfter int
}

func (s *failSink) Append(EpochRecord) error {
	s.n++
	if s.n > s.failAfter {
		return errors.New("disk full")
	}
	return nil
}
func (s *failSink) Close() error { return nil }

// TestSinkErrorLatched: the first sink error is latched and surfaced by
// SinkErr/CloseSink; recording itself keeps going (tail + metrics).
func TestSinkErrorLatched(t *testing.T) {
	r := New(0)
	if err := r.AttachSink(&failSink{failAfter: 3}, 8); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		r.EpochClosed(fullRecord(i))
	}
	if r.SinkErr() == nil {
		t.Fatal("sink error not latched")
	}
	if got := r.Registry().Counter("quartz.epochs.closed").Value(); got != 6 {
		t.Errorf("metrics stopped at %d epochs after sink error, want 6", got)
	}
	if err := r.CloseSink(); err == nil {
		t.Error("CloseSink did not surface the latched error")
	}
}

// TestLedgerSince covers the cursor in both retention modes, including
// pages that cross the wrap point of the tail ring.
func TestLedgerSince(t *testing.T) {
	t.Run("bounded", func(t *testing.T) {
		r := New(4) // keeps oldest 4 of 10
		for i := 0; i < 10; i++ {
			r.EpochClosed(fullRecord(i))
		}
		recs, total := r.LedgerSince(2, 100)
		if total != 10 {
			t.Errorf("total = %d, want 10", total)
		}
		if len(recs) != 2 || recs[0].Seq != 2 || recs[1].Seq != 3 {
			t.Errorf("since=2 over retained seqs 0-3: got %d records starting at %v", len(recs), recs)
		}
		if recs, _ := r.LedgerSince(100, 100); len(recs) != 0 {
			t.Errorf("since past the end returned %d records", len(recs))
		}
	})
	t.Run("ring", func(t *testing.T) {
		r := New(0)
		if err := r.AttachSink(NewWriterSink(&bytes.Buffer{}, FormatJSONL), 4); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			r.EpochClosed(fullRecord(i))
		}
		// Retained: seqs 6..9, stored wrapped as [8 9 6 7] with the head
		// at 6. A cursor before the range jumps to the oldest retained.
		for _, c := range []struct {
			since     uint64
			maxRecs   int
			wantLen   int
			wantFirst uint64
		}{
			{0, 100, 4, 6}, // before the range: the whole ring
			{0, 3, 3, 6},   // before the range, page crosses the wrap
			{7, 2, 2, 7},   // inside, page crosses the wrap
			{6, 2, 2, 6},   // inside, page ends at the wrap
			{8, 100, 2, 8}, // inside the wrapped part
			{9, 1, 1, 9},   // the newest record
			{10, 100, 0, 0},
			{6, 0, 0, 0},
		} {
			recs, total := r.LedgerSince(c.since, c.maxRecs)
			if total != 10 {
				t.Errorf("total = %d, want 10", total)
			}
			if len(recs) != c.wantLen {
				t.Fatalf("since=%d max=%d: got %d records, want %d", c.since, c.maxRecs, len(recs), c.wantLen)
			}
			for i, rec := range recs {
				if want := c.wantFirst + uint64(i); rec.Seq != want {
					t.Fatalf("since=%d max=%d: record %d has seq %d, want %d", c.since, c.maxRecs, i, rec.Seq, want)
				}
			}
		}
	})
}

// TestDecodeLedgerEmptyAndGarbage: edge cases of the decoder.
func TestDecodeLedgerEmptyAndGarbage(t *testing.T) {
	if recs, err := DecodeLedger(bytes.NewReader(nil)); err != nil || len(recs) != 0 {
		t.Errorf("empty stream: recs=%v err=%v", recs, err)
	}
	if _, err := DecodeLedger(bytes.NewReader([]byte("not a ledger\n"))); err == nil {
		t.Error("garbage stream decoded without error")
	}
	// A truncated stream must fail loudly, not silently shorten.
	var buf bytes.Buffer
	s := NewWriterSink(&buf, FormatJSONL)
	for i := 0; i < 3; i++ {
		if err := s.Append(fullRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	cut := buf.Bytes()[:buf.Len()-3]
	if _, err := DecodeLedger(bytes.NewReader(cut)); err == nil {
		t.Error("truncated stream decoded without error")
	}
}
