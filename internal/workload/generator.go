// Package workload is the traffic scenario engine: deterministic YCSB-style
// operation-stream generators (seeded key-popularity distributions, op-mix
// presets) and a client engine that multiplexes many simulated clients over
// a bounded pool of simos threads, with warmup/measurement windows and
// SLO-style latency reporting (report.go).
//
// Determinism is the package contract, matching the experiment runner's
// byte-identical-tables gate: every stream derives from (seed, client index)
// alone, so a scenario produces identical per-client op sequences — and
// identical assembled tables — for any pool size and any runner worker
// count.
package workload

import "fmt"

// LCG is the linear congruential generator every Quartz workload stream
// uses (Knuth's MMIX constants, top 53 bits output). It is the exact
// generator the kvstore validation figure (Fig. 15/16) has always used,
// extracted here so the validation workload and the traffic scenarios share
// one implementation.
type LCG struct{ x uint64 }

// NewLCG creates a generator with the given raw initial state. The state is
// used as-is: derive it with PreloadState or ClientState for the standard
// stream families.
func NewLCG(state uint64) LCG { return LCG{x: state} }

// Next advances the generator and returns the next 53-bit value.
func (l *LCG) Next() uint64 {
	l.x = l.x*6364136223846793005 + 1442695040888963407
	return l.x >> 11
}

// Float64 returns the next value scaled to [0, 1).
func (l *LCG) Float64() float64 {
	return float64(l.Next()) / float64(uint64(1)<<53)
}

// PreloadState derives the LCG state of a workload's preload stream from its
// seed (the kvstore validation figure's historical derivation).
func PreloadState(seed uint64) uint64 {
	return seed*2862933555777941757 + 3037000493
}

// ClientState derives the LCG state of client c's op stream from the
// scenario seed. Distinct clients get decorrelated streams via a golden-ratio
// stride (the kvstore validation figure's historical per-thread derivation).
func ClientState(seed uint64, c int) uint64 {
	return seed + uint64(c)*0x9e3779b97f4a7c15 + 1
}

// GetDraw reports whether the next operation of the classic put/get mix is a
// get, consuming one draw. This reproduces the validation figure's op pick
// bit-for-bit (a per-mille threshold on one LCG draw).
func GetDraw(r *LCG, getFraction float64) bool {
	return float64(r.Next()%1000)/1000 < getFraction
}

// KeyDist draws keys from a popularity distribution over [0, N). All
// implementations are deterministic functions of the generator state.
type KeyDist interface {
	// Key consumes draws from r and returns the next key.
	Key(r *LCG) uint64
	// N reports the key-space size.
	N() uint64
}

// Uniform draws every key in [0, Keys) with equal probability — the
// validation figure's historical key distribution.
type Uniform struct {
	Keys uint64
}

// Key consumes one draw.
func (u Uniform) Key(r *LCG) uint64 { return r.Next() % u.Keys }

// N reports the key-space size.
func (u Uniform) N() uint64 { return u.Keys }

// OpKind discriminates scenario operations.
type OpKind uint8

// Operation kinds.
const (
	OpRead OpKind = iota
	OpUpdate
	OpScan
	opKinds // number of kinds
)

// NumOpKinds is the number of operation kinds (for per-kind arrays).
const NumOpKinds = int(opKinds)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpUpdate:
		return "update"
	case OpScan:
		return "scan"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Mix is a YCSB-style operation blend in per-mille weights (the three
// weights must sum to 1000, checked by Validate).
type Mix struct {
	Name string
	// Read/Update/Scan are the per-mille op shares.
	Read, Update, Scan int
	// ScanLen is the item limit of one scan operation.
	ScanLen int
}

// Validate reports configuration errors.
func (m Mix) Validate() error {
	if m.Read < 0 || m.Update < 0 || m.Scan < 0 || m.Read+m.Update+m.Scan != 1000 {
		return fmt.Errorf("workload: mix %q weights %d/%d/%d must be non-negative and sum to 1000",
			m.Name, m.Read, m.Update, m.Scan)
	}
	if m.Scan > 0 && m.ScanLen <= 0 {
		return fmt.Errorf("workload: mix %q has scans but ScanLen = %d", m.Name, m.ScanLen)
	}
	return nil
}

// Presets are the standard serving blends, in the spirit of the YCSB core
// workloads: read-mostly (YCSB-B), write-heavy (YCSB-A), and a scan blend
// (YCSB-E-flavored, with point reads and updates mixed in).
var Presets = []Mix{
	{Name: "read-mostly", Read: 950, Update: 50, Scan: 0},
	{Name: "write-heavy", Read: 500, Update: 500, Scan: 0},
	{Name: "scan-blend", Read: 700, Update: 200, Scan: 100, ScanLen: 16},
}

// MixByName finds a preset by name.
func MixByName(name string) (Mix, bool) {
	for _, m := range Presets {
		if m.Name == name {
			return m, true
		}
	}
	return Mix{}, false
}

// PresetNames lists the preset mix names in declaration order.
func PresetNames() []string {
	names := make([]string, len(Presets))
	for i, m := range Presets {
		names[i] = m.Name
	}
	return names
}

// Op is one generated operation.
type Op struct {
	Kind OpKind
	Key  uint64
}

// nextOp is the generation step over externally held generator state — the
// engine keeps one inline LCG per client in a flat slice and shares the key
// distribution and the mix's cumulative per-mille thresholds (readMax =
// Read, updMax = Read+Update) scenario-wide. Draw order (key, then kind) is
// the validation workload's, bit for bit.
func nextOp(r *LCG, keys KeyDist, readMax, updMax int) Op {
	op := Op{Key: keys.Key(r)}
	v := int(r.Next() % 1000)
	switch {
	case v < readMax:
		op.Kind = OpRead
	case v < updMax:
		op.Kind = OpUpdate
	default:
		op.Kind = OpScan
	}
	return op
}
