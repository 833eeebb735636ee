package obs

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/quartz-emu/quartz/internal/sim"
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

// SinkFormat selects a ledger sink's on-disk encoding.
type SinkFormat int

const (
	// FormatJSONL writes one JSON object per line — self-describing,
	// grep/jq-able, ~2.5x larger than binary.
	FormatJSONL SinkFormat = iota
	// FormatBinary writes the compact length-prefixed binary framing
	// (magic "QZLG1", then per record: uvarint payload length + varint/
	// fixed64 fields). See doc/live-monitoring.md for the field order.
	FormatBinary
)

// String names the format as accepted by ParseSinkFormat.
func (f SinkFormat) String() string {
	switch f {
	case FormatJSONL:
		return "jsonl"
	case FormatBinary:
		return "binary"
	default:
		return fmt.Sprintf("SinkFormat(%d)", int(f))
	}
}

// ParseSinkFormat parses "jsonl" or "binary".
func ParseSinkFormat(s string) (SinkFormat, error) {
	switch s {
	case "jsonl":
		return FormatJSONL, nil
	case "binary":
		return FormatBinary, nil
	default:
		return 0, fmt.Errorf("unknown ledger format %q (jsonl|binary)", s)
	}
}

// binaryMagic opens every binary-format segment file.
const binaryMagic = "QZLG1"

// SinkOptions tunes a FileSink.
type SinkOptions struct {
	// Format selects the encoding (default FormatJSONL).
	Format SinkFormat
	// RotateBytes rotates the active file when appending a record would push
	// it past this size: the current segment is flushed, fsynced and renamed
	// to <path>.<n> (n = 1, 2, ... in write order) and a fresh <path> is
	// opened. 0 disables rotation.
	RotateBytes int64
	// BufferBytes is the write-buffer size (default 256 KiB).
	BufferBytes int
}

// FileSink streams epoch records to a file, buffered, with optional
// size-based rotation and fsync-on-close. All methods are safe for
// concurrent use.
type FileSink struct {
	mu      sync.Mutex
	path    string
	opts    SinkOptions
	f       *os.File
	bw      *bufio.Writer
	n       int64 // bytes appended to the active segment
	seg     int   // next rotation suffix
	scratch []byte
	closed  bool
}

// NewFileSink creates (truncating) path and returns a sink writing records
// to it in opts.Format.
func NewFileSink(path string, opts SinkOptions) (*FileSink, error) {
	if opts.BufferBytes <= 0 {
		opts.BufferBytes = 256 << 10
	}
	s := &FileSink{path: path, opts: opts, seg: 1}
	if err := s.openSegment(); err != nil {
		return nil, err
	}
	return s, nil
}

// openSegment opens a fresh active file and writes the format header.
func (s *FileSink) openSegment() error {
	f, err := os.Create(s.path)
	if err != nil {
		return err
	}
	s.f = f
	s.bw = bufio.NewWriterSize(f, s.opts.BufferBytes)
	s.n = 0
	if s.opts.Format == FormatBinary {
		if _, err := s.bw.WriteString(binaryMagic); err != nil {
			return err
		}
		s.n = int64(len(binaryMagic))
	}
	return nil
}

// Append implements LedgerSink.
func (s *FileSink) Append(rec EpochRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return os.ErrClosed
	}
	s.scratch = appendRecord(s.scratch[:0], rec, s.opts.Format)
	if s.opts.RotateBytes > 0 && s.n > int64(headerLen(s.opts.Format)) &&
		s.n+int64(len(s.scratch)) > s.opts.RotateBytes {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	n, err := s.bw.Write(s.scratch)
	s.n += int64(n)
	return err
}

// headerLen is the fixed per-segment header size for a format.
func headerLen(f SinkFormat) int {
	if f == FormatBinary {
		return len(binaryMagic)
	}
	return 0
}

// rotateLocked seals the active segment and opens a fresh one. The sealed
// segment is flushed, fsynced and renamed to <path>.<seg>.
func (s *FileSink) rotateLocked() error {
	if err := s.sealLocked(); err != nil {
		return err
	}
	if err := os.Rename(s.path, fmt.Sprintf("%s.%d", s.path, s.seg)); err != nil {
		return err
	}
	s.seg++
	return s.openSegment()
}

// sealLocked flushes, fsyncs and closes the active file.
func (s *FileSink) sealLocked() error {
	err := s.bw.Flush()
	if serr := s.f.Sync(); err == nil {
		err = serr
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close implements LedgerSink: flush, fsync, close.
func (s *FileSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.sealLocked()
}

// writerSink is a LedgerSink over a plain io.Writer — no file, no rotation,
// no fsync. It backs tests and benchmarks.
type writerSink struct {
	mu      sync.Mutex
	w       io.Writer
	format  SinkFormat
	scratch []byte
	started bool
}

// NewWriterSink returns a sink encoding records to w in the given format.
// The binary magic header is written before the first record.
func NewWriterSink(w io.Writer, format SinkFormat) LedgerSink {
	return &writerSink{w: w, format: format}
}

func (s *writerSink) Append(rec EpochRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.started {
		s.started = true
		if s.format == FormatBinary {
			if _, err := io.WriteString(s.w, binaryMagic); err != nil {
				return err
			}
		}
	}
	s.scratch = appendRecord(s.scratch[:0], rec, s.format)
	_, err := s.w.Write(s.scratch)
	return err
}

func (s *writerSink) Close() error { return nil }

// appendRecord encodes rec in the given format onto buf. Both encodings are
// allocation-free once buf has grown to steady-state capacity — Append sits
// on the epoch-close path, so each record must not cost a garbage object.
func appendRecord(buf []byte, rec EpochRecord, format SinkFormat) []byte {
	if format == FormatJSONL {
		buf = appendJSONRecord(buf, rec)
		return append(buf, '\n')
	}
	// Length-prefix the payload without a second buffer: reserve the widest
	// possible uvarint, encode the payload after it, then write the real
	// prefix and slide the payload onto it.
	base := len(buf)
	var zero [binary.MaxVarintLen64]byte
	buf = append(buf, zero[:]...)
	buf = appendBinaryPayload(buf, rec)
	payloadLen := len(buf) - base - binary.MaxVarintLen64
	n := binary.PutUvarint(zero[:], uint64(payloadLen))
	copy(buf[base:], zero[:n])
	copy(buf[base+n:], buf[base+binary.MaxVarintLen64:])
	return buf[:base+n+payloadLen]
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

// appendBinaryPayload encodes the record fields in their fixed order:
// uvarint Seq; varint PID, TID; string Thread; varint Start, End; string
// Reason; uvarint StallCycles, L3Hit, L3MissLocal, L3MissRemote, Stores,
// StoreMissLocal, StoreMissRem; fixed64 LDMStallCycles (IEEE 754,
// little-endian); varint Delay, WriteDelay, Injected, InjectStart,
// InjectEnd, Overhead, Carry. Strings are uvarint length + bytes.
func appendBinaryPayload(buf []byte, rec EpochRecord) []byte {
	buf = binary.AppendUvarint(buf, rec.Seq)
	buf = binary.AppendVarint(buf, int64(rec.PID))
	buf = binary.AppendVarint(buf, int64(rec.TID))
	buf = appendString(buf, rec.Thread)
	buf = binary.AppendVarint(buf, int64(rec.Start))
	buf = binary.AppendVarint(buf, int64(rec.End))
	buf = appendString(buf, rec.Reason)
	buf = binary.AppendUvarint(buf, rec.StallCycles)
	buf = binary.AppendUvarint(buf, rec.L3Hit)
	buf = binary.AppendUvarint(buf, rec.L3MissLocal)
	buf = binary.AppendUvarint(buf, rec.L3MissRemote)
	buf = binary.AppendUvarint(buf, rec.Stores)
	buf = binary.AppendUvarint(buf, rec.StoreMissLocal)
	buf = binary.AppendUvarint(buf, rec.StoreMissRem)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rec.LDMStallCycles))
	buf = binary.AppendVarint(buf, int64(rec.Delay))
	buf = binary.AppendVarint(buf, int64(rec.WriteDelay))
	buf = binary.AppendVarint(buf, int64(rec.Injected))
	buf = binary.AppendVarint(buf, int64(rec.InjectStart))
	buf = binary.AppendVarint(buf, int64(rec.InjectEnd))
	buf = binary.AppendVarint(buf, int64(rec.Overhead))
	return binary.AppendVarint(buf, int64(rec.Carry))
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// DecodeLedger decodes a ledger stream written by a JSONL or binary sink,
// sniffing the format from the first bytes. An empty stream decodes to an
// empty ledger.
func DecodeLedger(r io.Reader) ([]EpochRecord, error) {
	br := bufio.NewReaderSize(r, 256<<10)
	head, err := br.Peek(len(binaryMagic))
	if err == io.EOF {
		return nil, nil
	}
	if err != nil && len(head) == 0 {
		return nil, err
	}
	if string(head) == binaryMagic {
		return decodeBinaryLedger(br)
	}
	return decodeJSONLLedger(br)
}

// decodeJSONLLedger decodes one JSON object per line.
func decodeJSONLLedger(br *bufio.Reader) ([]EpochRecord, error) {
	var out []EpochRecord
	dec := json.NewDecoder(br)
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

// decodeBinaryLedger decodes the length-prefixed binary framing (after
// verifying the magic header).
func decodeBinaryLedger(br *bufio.Reader) ([]EpochRecord, error) {
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("obs: binary ledger header: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("obs: bad binary ledger magic %q", magic)
	}
	var out []EpochRecord
	var payload []byte
	for {
		n, err := binary.ReadUvarint(br)
		if err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, fmt.Errorf("obs: binary ledger record %d length: %w", len(out), err)
		}
		if n > 1<<20 {
			return out, fmt.Errorf("obs: binary ledger record %d implausibly large (%d bytes)", len(out), n)
		}
		if uint64(cap(payload)) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return out, fmt.Errorf("obs: binary ledger record %d: %w", len(out), err)
		}
		rec, err := decodeBinaryPayload(payload)
		if err != nil {
			return out, fmt.Errorf("obs: binary ledger record %d: %w", len(out), err)
		}
		out = append(out, rec)
	}
}

var errShortPayload = errors.New("truncated payload")

// decodeBinaryPayload is the inverse of appendBinaryPayload.
func decodeBinaryPayload(p []byte) (EpochRecord, error) {
	d := payloadReader{p: p}
	var rec EpochRecord
	rec.Seq = d.uvarint()
	rec.PID = int(d.varint())
	rec.TID = int(d.varint())
	rec.Thread = d.str()
	rec.Start = sim.Time(d.varint())
	rec.End = sim.Time(d.varint())
	rec.Reason = d.str()
	rec.StallCycles = d.uvarint()
	rec.L3Hit = d.uvarint()
	rec.L3MissLocal = d.uvarint()
	rec.L3MissRemote = d.uvarint()
	rec.Stores = d.uvarint()
	rec.StoreMissLocal = d.uvarint()
	rec.StoreMissRem = d.uvarint()
	rec.LDMStallCycles = d.float64()
	rec.Delay = sim.Time(d.varint())
	rec.WriteDelay = sim.Time(d.varint())
	rec.Injected = sim.Time(d.varint())
	rec.InjectStart = sim.Time(d.varint())
	rec.InjectEnd = sim.Time(d.varint())
	rec.Overhead = sim.Time(d.varint())
	rec.Carry = sim.Time(d.varint())
	if d.err != nil {
		return EpochRecord{}, d.err
	}
	if len(d.p) != 0 {
		return EpochRecord{}, fmt.Errorf("%d trailing bytes", len(d.p))
	}
	return rec, nil
}

// payloadReader consumes a binary record payload, latching the first error.
type payloadReader struct {
	p   []byte
	err error
}

func (d *payloadReader) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.p)
	if n <= 0 {
		d.err = errShortPayload
		return 0
	}
	d.p = d.p[n:]
	return v
}

func (d *payloadReader) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.p)
	if n <= 0 {
		d.err = errShortPayload
		return 0
	}
	d.p = d.p[n:]
	return v
}

func (d *payloadReader) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.p)) < n {
		d.err = errShortPayload
		return ""
	}
	s := string(d.p[:n])
	d.p = d.p[n:]
	return s
}

func (d *payloadReader) float64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.p) < 8 {
		d.err = errShortPayload
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.p))
	d.p = d.p[8:]
	return v
}

// LedgerSegments returns a FileSink's segment files in write order: the
// rotated segments <path>.1, <path>.2, ... followed by the active <path>.
// Missing rotated segments are fine (rotation may never have fired); a
// missing <path> is an error.
func LedgerSegments(path string) ([]string, error) {
	if _, err := os.Stat(path); err != nil {
		return nil, err
	}
	matches, err := filepath.Glob(path + ".*")
	if err != nil {
		return nil, err
	}
	type seg struct {
		n    int
		path string
	}
	var segs []seg
	for _, m := range matches {
		suffix := strings.TrimPrefix(m, path+".")
		n, err := strconv.Atoi(suffix)
		if err != nil || n <= 0 {
			continue // unrelated file sharing the prefix
		}
		segs = append(segs, seg{n, m})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].n < segs[j].n })
	out := make([]string, 0, len(segs)+1)
	for _, s := range segs {
		out = append(out, s.path)
	}
	return append(out, path), nil
}

// ReadLedger decodes a FileSink's complete output — every rotated segment
// plus the active file, concatenated in write order.
func ReadLedger(path string) ([]EpochRecord, error) {
	segs, err := LedgerSegments(path)
	if err != nil {
		return nil, err
	}
	var out []EpochRecord
	for _, seg := range segs {
		f, err := os.Open(seg)
		if err != nil {
			return out, err
		}
		recs, err := DecodeLedger(f)
		f.Close()
		if err != nil {
			return out, fmt.Errorf("%s: %w", seg, err)
		}
		out = append(out, recs...)
	}
	return out, nil
}
