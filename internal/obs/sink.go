package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"sync"
)

// LedgerSink receives every closed epoch record, in close order, as it is
// recorded. Attaching a sink to a Recorder (AttachSink) removes the
// in-memory ledger bound: the full ledger lives wherever the sink puts it
// and memory keeps only a small tail ring for live queries. Append is called
// under the recorder's ledger mutex, so implementations need not be
// concurrency-safe for Append-vs-Append, but Close may race with nothing
// (the recorder detaches first).
type LedgerSink interface {
	// Append writes one record. Implementations should buffer: Append is on
	// the epoch-close path (wall-clock only — virtual time is never
	// perturbed by observation, but a slow sink still slows the host run).
	Append(rec EpochRecord) error
	// Close flushes buffered records and releases resources. File-backed
	// sinks fsync before closing so a completed run's ledger survives a
	// crash of whatever reads it next.
	Close() error
}

// SinkFormat names a ledger sink's encoding. JSONL is the only one; the
// type and NewWriterSink's format argument remain only because the
// benchmark harness passes FormatJSONL.
type SinkFormat int

// FormatJSONL writes one JSON object per line: self-describing and
// grep/jq-able.
const FormatJSONL SinkFormat = 0

// writerSink is the one LedgerSink implementation: records encoded as
// JSONL onto w under a mutex. Encoding into the reused scratch line keeps Append allocation-free
// at steady state, since it sits on the epoch-close path.
type writerSink struct {
	mu      sync.Mutex
	w       io.Writer
	seal    func() error // what Close runs; nil for a plain writer
	scratch []byte
	closed  bool
}

// NewWriterSink returns a sink writing JSONL records to w; its Close
// leaves w open. format must be FormatJSONL.
func NewWriterSink(w io.Writer, format SinkFormat) LedgerSink {
	return &writerSink{w: w}
}

// NewFileSink creates (truncating) path and returns a sink writing JSONL
// records to it through a 256 KiB buffer. Close flushes, fsyncs and closes
// the file.
func NewFileSink(path string) (LedgerSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(f, 256<<10)
	return &writerSink{w: bw, seal: func() error {
		err := bw.Flush()
		if serr := f.Sync(); err == nil {
			err = serr
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}}, nil
}

// Append implements LedgerSink.
func (s *writerSink) Append(rec EpochRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return os.ErrClosed
	}
	s.scratch = append(appendJSONRecord(s.scratch[:0], rec), '\n')
	_, err := s.w.Write(s.scratch)
	return err
}

// Close implements LedgerSink.
func (s *writerSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.seal == nil {
		return nil
	}
	return s.seal()
}

// appendJSONRecord encodes rec byte-identically to encoding/json (field
// order, omitempty handling, float formatting and string escaping all
// match; TestAppendJSONRecordMatchesStdlib enforces the equivalence) while
// appending into the caller's buffer instead of allocating a fresh line.
func appendJSONRecord(buf []byte, rec EpochRecord) []byte {
	buf = append(buf, `{"seq":`...)
	buf = strconv.AppendUint(buf, rec.Seq, 10)
	buf = append(buf, `,"pid":`...)
	buf = strconv.AppendInt(buf, int64(rec.PID), 10)
	buf = append(buf, `,"tid":`...)
	buf = strconv.AppendInt(buf, int64(rec.TID), 10)
	if rec.Thread != "" {
		buf = append(buf, `,"thread":`...)
		buf = appendJSONString(buf, rec.Thread)
	}
	buf = append(buf, `,"start_fs":`...)
	buf = strconv.AppendInt(buf, int64(rec.Start), 10)
	buf = append(buf, `,"end_fs":`...)
	buf = strconv.AppendInt(buf, int64(rec.End), 10)
	buf = append(buf, `,"reason":`...)
	buf = appendJSONString(buf, rec.Reason)
	buf = append(buf, `,"stall_cycles":`...)
	buf = strconv.AppendUint(buf, rec.StallCycles, 10)
	buf = append(buf, `,"l3_hit":`...)
	buf = strconv.AppendUint(buf, rec.L3Hit, 10)
	buf = append(buf, `,"l3_miss_local":`...)
	buf = strconv.AppendUint(buf, rec.L3MissLocal, 10)
	if rec.L3MissRemote != 0 {
		buf = append(buf, `,"l3_miss_remote":`...)
		buf = strconv.AppendUint(buf, rec.L3MissRemote, 10)
	}
	if rec.Stores != 0 {
		buf = append(buf, `,"stores":`...)
		buf = strconv.AppendUint(buf, rec.Stores, 10)
	}
	if rec.StoreMissLocal != 0 {
		buf = append(buf, `,"store_miss_local":`...)
		buf = strconv.AppendUint(buf, rec.StoreMissLocal, 10)
	}
	if rec.StoreMissRem != 0 {
		buf = append(buf, `,"store_miss_remote":`...)
		buf = strconv.AppendUint(buf, rec.StoreMissRem, 10)
	}
	buf = append(buf, `,"ldm_stall_cycles":`...)
	buf = appendJSONFloat(buf, rec.LDMStallCycles)
	buf = append(buf, `,"delay_fs":`...)
	buf = strconv.AppendInt(buf, int64(rec.Delay), 10)
	if rec.WriteDelay != 0 {
		buf = append(buf, `,"write_delay_fs":`...)
		buf = strconv.AppendInt(buf, int64(rec.WriteDelay), 10)
	}
	buf = append(buf, `,"injected_fs":`...)
	buf = strconv.AppendInt(buf, int64(rec.Injected), 10)
	if rec.InjectStart != 0 {
		buf = append(buf, `,"inject_start_fs":`...)
		buf = strconv.AppendInt(buf, int64(rec.InjectStart), 10)
	}
	if rec.InjectEnd != 0 {
		buf = append(buf, `,"inject_end_fs":`...)
		buf = strconv.AppendInt(buf, int64(rec.InjectEnd), 10)
	}
	buf = append(buf, `,"overhead_fs":`...)
	buf = strconv.AppendInt(buf, int64(rec.Overhead), 10)
	buf = append(buf, `,"carry_fs":`...)
	buf = strconv.AppendInt(buf, int64(rec.Carry), 10)
	return append(buf, '}')
}

// appendJSONString appends s as a JSON string. Strings that are plain
// printable ASCII with nothing encoding/json would escape (it HTML-escapes
// <, >, & by default) take the copy fast path; anything else — control
// bytes, quotes, backslashes, non-ASCII — defers to json.Marshal for
// byte-identical escaping (allocating; epoch reasons and thread names are
// ASCII-safe in practice).
func appendJSONString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			enc, err := json.Marshal(s)
			if err != nil {
				panic(fmt.Sprintf("obs: marshaling string: %v", err))
			}
			return append(buf, enc...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// appendJSONFloat appends f with encoding/json's float formatting: shortest
// representation, %f style except for very small or very large magnitudes,
// and the stdlib's two-digit-exponent cleanup (e-09 → e-9).
func appendJSONFloat(buf []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		// json.Marshal would refuse the record; make the impossible loud.
		panic(fmt.Sprintf("obs: unsupported float value %v in EpochRecord", f))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	start := len(buf)
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if format == 'e' {
		if n := len(buf); n-start >= 4 && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
			buf[n-2] = buf[n-1]
			buf = buf[:n-1]
		}
	}
	return buf
}

// DecodeLedger decodes a JSONL ledger stream, one record per line. An empty
// stream decodes to an empty ledger.
func DecodeLedger(r io.Reader) ([]EpochRecord, error) {
	var out []EpochRecord
	dec := json.NewDecoder(r)
	for {
		var rec EpochRecord
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, fmt.Errorf("obs: jsonl ledger record %d: %w", len(out), err)
		}
		out = append(out, rec)
	}
}

// ReadLedger decodes the ledger file a file sink wrote.
func ReadLedger(path string) ([]EpochRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := DecodeLedger(f)
	if err != nil {
		return recs, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}
