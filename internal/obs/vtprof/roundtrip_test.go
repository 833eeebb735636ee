package vtprof_test

// Round-trip coverage for the hand-encoded pprof exporter: a minimal
// profile.proto decoder (test-only — the production side stays stdlib-only
// and write-only) decodes what WritePprof emitted, and the decoded samples
// must reproduce the profile exactly. The emulated-run test then reconciles
// the decoded totals against the emulator's independent accounting: total
// virtual_ns equals the scenario's virtual duration, and the inject_*
// categories equal the metrics registry's quartz.delay.injected_ns counter
// to the nanosecond.

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"testing"

	"github.com/quartz-emu/quartz/internal/bench"
	"github.com/quartz-emu/quartz/internal/core"
	"github.com/quartz-emu/quartz/internal/machine"
	"github.com/quartz-emu/quartz/internal/obs"
	"github.com/quartz-emu/quartz/internal/obs/vtprof"
	"github.com/quartz-emu/quartz/internal/sim"
	"github.com/quartz-emu/quartz/internal/simos"
)

// ---- minimal profile.proto decoder (field numbers per pprof's proto) ----

type decodedValueType struct{ typ, unit string }

type decodedSample struct {
	stack  []string // leaf-first: category, phases deepest-first, thread
	values []int64  // one per sample type
}

type decodedProfile struct {
	sampleTypes       []decodedValueType
	samples           []decodedSample
	periodType        decodedValueType
	period            int64
	defaultSampleType string
}

func uvarint(t *testing.T, b []byte, i int) (uint64, int) {
	t.Helper()
	var v uint64
	for shift := 0; ; shift += 7 {
		if i >= len(b) {
			t.Fatal("truncated varint")
		}
		c := b[i]
		i++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, i
		}
	}
}

// fields splits a protobuf message into (field, wiretype, payload) triples;
// varint fields carry the value in num, length-delimited fields in buf.
type field struct {
	num  int
	wire int
	val  uint64
	buf  []byte
}

func parseFields(t *testing.T, b []byte) []field {
	t.Helper()
	var fs []field
	for i := 0; i < len(b); {
		var key uint64
		key, i = uvarint(t, b, i)
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.val, i = uvarint(t, b, i)
		case 2:
			var n uint64
			n, i = uvarint(t, b, i)
			if i+int(n) > len(b) {
				t.Fatal("truncated length-delimited field")
			}
			f.buf = b[i : i+int(n)]
			i += int(n)
		default:
			t.Fatalf("unexpected wire type %d for field %d", f.wire, f.num)
		}
		fs = append(fs, f)
	}
	return fs
}

func packedUint64s(t *testing.T, f field) []uint64 {
	t.Helper()
	if f.wire == 0 {
		return []uint64{f.val}
	}
	var vs []uint64
	for i := 0; i < len(f.buf); {
		var v uint64
		v, i = uvarint(t, f.buf, i)
		vs = append(vs, v)
	}
	return vs
}

func decodePprof(t *testing.T, gzipped []byte) *decodedProfile {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(gzipped))
	if err != nil {
		t.Fatalf("profile is not gzip: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}

	var (
		strs      []string
		vts       [][2]int64 // (type, unit) string indices, field order
		rawSmpls  [][2][]uint64
		locFunc   = map[uint64]uint64{}
		funcName  = map[uint64]int64{}
		periodVT  [2]int64
		period    int64
		defaultST int64
	)
	for _, f := range parseFields(t, raw) {
		switch f.num {
		case 6: // string_table
			strs = append(strs, string(f.buf))
		case 1, 11: // sample_type, period_type
			var vt [2]int64
			for _, g := range parseFields(t, f.buf) {
				if g.num == 1 {
					vt[0] = int64(g.val)
				} else if g.num == 2 {
					vt[1] = int64(g.val)
				}
			}
			if f.num == 1 {
				vts = append(vts, vt)
			} else {
				periodVT = vt
			}
		case 2: // sample
			var s [2][]uint64
			for _, g := range parseFields(t, f.buf) {
				if g.num == 1 {
					s[0] = append(s[0], packedUint64s(t, g)...)
				} else if g.num == 2 {
					s[1] = append(s[1], packedUint64s(t, g)...)
				}
			}
			rawSmpls = append(rawSmpls, s)
		case 4: // location
			var id, fn uint64
			for _, g := range parseFields(t, f.buf) {
				if g.num == 1 {
					id = g.val
				} else if g.num == 4 { // line
					for _, l := range parseFields(t, g.buf) {
						if l.num == 1 {
							fn = l.val
						}
					}
				}
			}
			locFunc[id] = fn
		case 5: // function
			var id uint64
			var name int64
			for _, g := range parseFields(t, f.buf) {
				if g.num == 1 {
					id = g.val
				} else if g.num == 2 {
					name = int64(g.val)
				}
			}
			funcName[id] = name
		case 12:
			period = int64(f.val)
		case 14:
			defaultST = int64(f.val)
		}
	}

	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			t.Fatalf("string index %d out of range (%d strings)", i, len(strs))
		}
		return strs[i]
	}
	p := &decodedProfile{
		period:            period,
		periodType:        decodedValueType{str(periodVT[0]), str(periodVT[1])},
		defaultSampleType: str(defaultST),
	}
	for _, vt := range vts {
		p.sampleTypes = append(p.sampleTypes, decodedValueType{str(vt[0]), str(vt[1])})
	}
	for _, s := range rawSmpls {
		ds := decodedSample{}
		for _, loc := range s[0] {
			fn, ok := locFunc[loc]
			if !ok {
				t.Fatalf("sample references unknown location %d", loc)
			}
			ds.stack = append(ds.stack, str(funcName[fn]))
		}
		for _, v := range s[1] {
			ds.values = append(ds.values, int64(v))
		}
		p.samples = append(p.samples, ds)
	}
	return p
}

// total sums decoded values for one sample-type index, optionally filtered by
// leaf frame (the category).
func (p *decodedProfile) total(valueIdx int, leaf string) int64 {
	var sum int64
	for _, s := range p.samples {
		if leaf != "" && (len(s.stack) == 0 || s.stack[0] != leaf) {
			continue
		}
		sum += s.values[valueIdx]
	}
	return sum
}

// rootTotal sums one sample-type index over the samples rooted at the given
// thread frame (the stack's last element).
func (p *decodedProfile) rootTotal(valueIdx int, thread string) int64 {
	var sum int64
	for _, s := range p.samples {
		if len(s.stack) == 0 || s.stack[len(s.stack)-1] != thread {
			continue
		}
		sum += s.values[valueIdx]
	}
	return sum
}

// ---- tests ----

// TestPprofRoundTripExact: encode a known profile and decode it back; the
// header, stacks and values must all survive the trip.
func TestPprofRoundTripExact(t *testing.T) {
	outer := vtprof.Intern("rt.outer")
	inner := vtprof.Intern("rt.inner")
	p := vtprof.New()
	s := p.NewThread("w0", 0)
	s.Push(outer)
	s.Charge(vtprof.Compute, 5*sim.Nanosecond)
	s.Push(inner)
	s.Charge(vtprof.MemStall, 12*sim.Nanosecond)
	s.Pop()
	s.Pop()
	s.ChargeInjected(30*sim.Nanosecond, 15*sim.Nanosecond, 5*sim.Nanosecond, 15*sim.Nanosecond)
	s.Fold(30 * sim.Nanosecond)

	b, err := p.Snapshot().PprofBytes()
	if err != nil {
		t.Fatal(err)
	}
	dec := decodePprof(t, b)

	if len(dec.sampleTypes) != 2 ||
		dec.sampleTypes[0] != (decodedValueType{"virtual_ns", "nanoseconds"}) ||
		dec.sampleTypes[1] != (decodedValueType{"injected_ns", "nanoseconds"}) {
		t.Fatalf("sample types = %v", dec.sampleTypes)
	}
	if dec.defaultSampleType != "virtual_ns" || dec.period != 1 ||
		dec.periodType != (decodedValueType{"virtual_ns", "nanoseconds"}) {
		t.Errorf("header: default=%q period=%d periodType=%v",
			dec.defaultSampleType, dec.period, dec.periodType)
	}

	// Every decoded sample is leaf-first: category, phases deepest-first,
	// thread root. Rebuild the (stack → values) map and compare exactly.
	got := map[string][2]int64{}
	for _, s := range dec.samples {
		got[fmt.Sprintf("%v", s.stack)] = [2]int64{s.values[0], s.values[1]}
	}
	want := map[string][2]int64{
		"[compute rt.outer w0]":            {5, 0},
		"[mem_stall rt.inner rt.outer w0]": {7, 0},
		"[inject_read w0]":                 {10, 10},
		"[inject_write w0]":                {5, 5},
		"[sched_wait w0]":                  {3, 0},
	}
	if len(got) != len(want) {
		t.Errorf("decoded %d samples, want %d: %v", len(got), len(want), got)
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("sample %s = %v, want %v", k, got[k], w)
		}
	}
}

// TestPprofEmulatedReconciles runs a real emulated MemLat scenario with the
// profiler attached and reconciles the decoded profile against the run's two
// independent accountings: total virtual_ns must equal the scenario's virtual
// duration exactly, and the inject_* categories must equal the metrics
// registry's quartz.delay.injected_ns counter exactly.
func TestPprofEmulatedReconciles(t *testing.T) {
	rec := obs.New(0)
	prof := vtprof.New()
	env, err := bench.NewEnv(bench.EnvConfig{
		Preset: machine.XeonE5_2450,
		Mode:   bench.Emulated,
		Quartz: core.Config{
			NVMLatency: sim.FromNanos(600),
			MaxEpoch:   sim.Millisecond,
			MinEpoch:   20 * sim.Microsecond,
			InitCycles: 1,
			Observer:   rec,
		},
		Profiler: prof,
	})
	if err != nil {
		t.Fatal(err)
	}
	ml, err := bench.BuildMemLat(env.Proc, bench.MemLatConfig{
		Lines: 1 << 18, Chains: 1, Iters: 40_000, Node: env.AllocNode(), Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Run(func(e *bench.Env, th *simos.Thread) {
		ml.Run(th)
		th.SettledNow()
	}); err != nil {
		t.Fatal(err)
	}

	b, err := prof.Snapshot().PprofBytes()
	if err != nil {
		t.Fatal(err)
	}
	dec := decodePprof(t, b)
	if len(dec.sampleTypes) != 2 || dec.sampleTypes[0].typ != "virtual_ns" || dec.sampleTypes[1].typ != "injected_ns" {
		t.Fatalf("sample types = %v", dec.sampleTypes)
	}

	// The main thread was born at virtual 0 and finished last (it joins the
	// emulator's monitor thread before exiting), folding at the scenario's
	// virtual end; the watermark carry makes its charged total exactly the
	// floor of the scenario's virtual duration in nanoseconds. The grand
	// total adds the monitor thread's lifetime on top.
	wantNS := int64(env.Proc.EndTime() / sim.Nanosecond)
	if got := dec.rootTotal(0, "main"); got != wantNS {
		t.Errorf("decoded main-thread virtual_ns = %d, scenario virtual duration = %d ns", got, wantNS)
	}
	if got := dec.total(0, ""); got < wantNS {
		t.Errorf("decoded virtual_ns grand total = %d, below the scenario duration %d ns", got, wantNS)
	}

	// Inject reconciliation, exact: profile inject categories == registry
	// counter == decoded injected_ns column.
	wantInjected := rec.Registry().Counter("quartz.delay.injected_ns").Value()
	if wantInjected == 0 {
		t.Fatal("scenario injected nothing; emulation inactive?")
	}
	injRead := dec.total(0, "inject_read")
	injWrite := dec.total(0, "inject_write")
	if injRead+injWrite != wantInjected {
		t.Errorf("decoded inject_read+inject_write = %d+%d, registry quartz.delay.injected_ns = %d",
			injRead, injWrite, wantInjected)
	}
	if got := dec.total(1, ""); got != wantInjected {
		t.Errorf("decoded injected_ns column total = %d, registry = %d", got, wantInjected)
	}
	if injRead == 0 {
		t.Error("inject_read = 0 on a 600 ns read-latency scenario")
	}
	if injWrite != 0 {
		t.Errorf("inject_write = %d on a symmetric (read-only model) scenario", injWrite)
	}

	// And the exporter-side totals agree with the decoder's view.
	snap := prof.Snapshot()
	tot := snap.Totals()
	if injected := tot[vtprof.InjectRead] + tot[vtprof.InjectWrite]; snap.TotalNS() != dec.total(0, "") || injected != wantInjected {
		t.Errorf("snapshot totals %d/%d disagree with decoded %d/%d",
			snap.TotalNS(), injected, dec.total(0, ""), wantInjected)
	}
}

// TestProfilerDoesNotPerturbVirtualTime: attaching the profiler must not move
// a single virtual clock — the same scenario finishes at the same virtual
// instant with and without it.
func TestProfilerDoesNotPerturbVirtualTime(t *testing.T) {
	run := func(prof *vtprof.Profiler) sim.Time {
		env, err := bench.NewEnv(bench.EnvConfig{
			Preset: machine.XeonE5_2450,
			Mode:   bench.Emulated,
			Quartz: core.Config{
				NVMLatency: sim.FromNanos(400),
				MaxEpoch:   sim.Millisecond,
				MinEpoch:   20 * sim.Microsecond,
				InitCycles: 1,
			},
			Profiler: prof,
		})
		if err != nil {
			t.Fatal(err)
		}
		ml, err := bench.BuildMemLat(env.Proc, bench.MemLatConfig{
			Lines: 1 << 18, Chains: 2, Iters: 20_000, Node: env.AllocNode(), Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := env.Run(func(e *bench.Env, th *simos.Thread) {
			ml.Run(th)
			th.SettledNow()
		}); err != nil {
			t.Fatal(err)
		}
		return env.Proc.EndTime()
	}
	bare := run(nil)
	profiled := run(vtprof.New())
	if bare != profiled {
		t.Errorf("virtual completion time moved under profiling: %v vs %v", bare, profiled)
	}
}
