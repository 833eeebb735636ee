package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A traced run's CPU profile is split into per-layer host time here, with a
// small reader for the gzipped profile.proto that runtime/pprof writes.
//
// Attribution rule: a sample is charged to the innermost frame of this
// module. runtime frames below a module frame count for that frame's layer,
// so a futex wake inside the coroutine handoff counts for sim. Only samples
// with no module frame go to the runtime buckets: GC workers to runtime.gc,
// the scheduler (schedule/findRunnable) to runtime.sched, everything else
// to runtime.other. Every sample lands in exactly one bucket, so the
// buckets sum to the profile's total.

const modulePath = "github.com/quartz-emu/quartz/"

// layerPkgs maps package paths under the module to layers, first match
// first: a path matches its own functions and those of its sub-packages.
var layerPkgs = []struct{ pkg, layer string }{
	{"internal/cache.(*Prefetcher)", "cache.prefetch"},
	{"internal/cache", "cache"},
	{"internal/cpu", "cpu"},
	{"internal/mem", "mem"},
	{"internal/perf", "perf"},
	{"internal/machine", "machine"},
	{"internal/simos", "simos"},
	{"internal/sim", "sim"},
	{"internal/core", "core"},
	{"internal/workload", "workload"},
	{"internal/apps/kvstore", "kvstore"},
	{"internal/apps", "apps"},
	{"internal/bench", "bench"},
	{"internal/obs", "obs"},
	{"internal/runner", "runner"},
	{"internal/experiments", "experiments"},
	{"cmd/quartzperf", "quartzperf"},
}

// layerOf maps a function name to its layer, or "" when the function is
// not in this module. The benchmark's own functions are named main.* in
// the command and by import path in its test binary.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "quartzperf"
	}
	rest, ok := strings.CutPrefix(fn, modulePath)
	if !ok {
		return ""
	}
	for _, lp := range layerPkgs {
		if tail, ok := strings.CutPrefix(rest, lp.pkg); ok && (strings.HasPrefix(tail, ".") || strings.HasPrefix(tail, "/")) {
			return lp.layer
		}
	}
	return "other"
}

// layerOfStack applies the attribution rule to a leaf-first stack.
func layerOfStack(stack []string) string {
	for _, fn := range stack {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	for _, fn := range stack {
		if fn == "runtime._GC" || strings.HasPrefix(fn, "runtime.gc") ||
			strings.HasPrefix(fn, "runtime.bgsweep") || strings.HasPrefix(fn, "runtime.bgscavenge") {
			return "runtime.gc"
		}
	}
	for _, fn := range stack {
		if fn == "runtime.schedule" || fn == "runtime.findRunnable" {
			return "runtime.sched"
		}
	}
	return "runtime.other"
}

// attribution is a CPU profile split by layer, in nanoseconds.
type attribution struct {
	ns    map[string]int64
	total int64
}

func attribute(samples []cpuSample) attribution {
	a := attribution{ns: map[string]int64{}}
	for _, s := range samples {
		a.ns[layerOfStack(s.stack)] += s.ns
		a.total += s.ns
	}
	return a
}

// cpuSample is one profile sample: its stack, leaf first with inlined
// frames expanded, and its CPU time.
type cpuSample struct {
	stack []string
	ns    int64
}

var errTruncated = errors.New("truncated protobuf")

// pbField is one protobuf field: varint and fixed values in val,
// length-delimited payloads in buf.
type pbField struct {
	num int
	val uint64
	buf []byte
	len bool
}

func pbFields(b []byte) ([]pbField, error) {
	var fs []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		b = b[n:]
		f := pbField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			if f.val, n = binary.Uvarint(b); n <= 0 {
				return nil, errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errTruncated
			}
			f.val, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errTruncated
			}
			f.buf, f.len, b = b[n:n+int(l)], true, b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errTruncated
			}
			f.val, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, fmt.Errorf("unsupported protobuf wire type %d", key&7)
		}
		fs = append(fs, f)
	}
	return fs, nil
}

// pbInts reads a repeated integer field, packed or not.
func pbInts(f pbField) ([]uint64, error) {
	if !f.len {
		return []uint64{f.val}, nil
	}
	var vs []uint64
	for b := f.buf; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		vs, b = append(vs, v), b[n:]
	}
	return vs, nil
}

// decodeCPUProfile reads a gzipped runtime/pprof CPU profile (field numbers
// per pprof's profile.proto) into samples with their cpu/nanoseconds value.
func decodeCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		typeNames []uint64 // sample_type type string indices
		samples   []pbField
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName  = map[uint64]uint64{}   // function id -> name string index
	)
	for _, f := range top {
		switch f.num {
		case 1: // sample_type
			sub, err := pbFields(f.buf)
			if err != nil {
				return nil, err
			}
			for _, g := range sub {
				if g.num == 1 {
					typeNames = append(typeNames, g.val)
				}
			}
		case 2:
			samples = append(samples, f)
		case 4: // location
			sub, err := pbFields(f.buf)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, g := range sub {
				switch g.num {
				case 1:
					id = g.val
				case 4: // line
					lines, err := pbFields(g.buf)
					if err != nil {
						return nil, err
					}
					for _, l := range lines {
						if l.num == 1 {
							fns = append(fns, l.val)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // function
			sub, err := pbFields(f.buf)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, g := range sub {
				switch g.num {
				case 1:
					id = g.val
				case 2:
					name = g.val
				}
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(f.buf))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpuIdx := -1
	for i, t := range typeNames {
		if str(t) == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := make([]cpuSample, 0, len(samples))
	for _, f := range samples {
		sub, err := pbFields(f.buf)
		if err != nil {
			return nil, err
		}
		var s cpuSample
		var values []uint64
		for _, g := range sub {
			vs, err := pbInts(g)
			if err != nil {
				return nil, err
			}
			switch g.num {
			case 1:
				for _, loc := range vs {
					for _, fn := range locFuncs[loc] {
						s.stack = append(s.stack, str(funcName[fn]))
					}
				}
			case 2:
				values = append(values, vs...)
			}
		}
		if cpuIdx >= len(values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		s.ns = int64(values[cpuIdx])
		out = append(out, s)
	}
	return out, nil
}
