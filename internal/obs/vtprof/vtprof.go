// Package vtprof is the virtual-time profiler: it attributes every simulated
// nanosecond of a run to a (thread, phase-stack, category) triple, the same
// hierarchical model pprof applies to wall time. Threads carry a fixed-depth
// stack of interned phase IDs (Thread.PushPhase/PopPhase in internal/simos);
// the accounting points that advance simulated time — instruction advances,
// memory-model latency, epoch delay injection, sync waits, signal delivery —
// charge the elapsed interval to the current stack under one of six
// categories. The steady-state path is allocation-free: charging is integer
// arithmetic on a per-thread tree of pre-faulted nodes, pushing an interned
// phase walks a sibling list, and no map or string is touched until a thread
// folds its series into the job profile at exit.
//
// Attribution is watermark-based: each ThreadSeries remembers the virtual
// clock at its last charge and assigns the whole interval since then to the
// charged category. Femtosecond residues below a nanosecond carry over
// (restFS), so a thread's charged total is exactly
// floor(lifetime / 1ns) — which makes the profile reconcile exactly with the
// obs registry's nanosecond counters (see ChargeInjected).
//
// A nil *Profiler, nil *ThreadSeries, or nil *Suite is inert: every method
// is a cheap no-op, so the instrumentation can stay unconditionally wired
// and costs one pointer test when profiling is off.
package vtprof

import (
	"sort"
	"sync"

	"github.com/quartz-emu/quartz/internal/sim"
)

// Category classifies where a slice of simulated time went.
type Category uint8

const (
	// Compute is instruction execution and fixed per-op costs (including
	// the emulator's own epoch-close cost model).
	Compute Category = iota
	// MemStall is hit-level memory latency: the cycles the memory model
	// charges loads, stores, flushes and fences, including bandwidth
	// throttle stalls (internal/mem).
	MemStall
	// InjectRead is epoch delay injected for the read-latency term
	// (Eq. 2/3).
	InjectRead
	// InjectWrite is epoch delay injected for the asymmetric write term
	// (store model).
	InjectWrite
	// SyncWait is time blocked on mutexes, condition variables, rwmutexes,
	// barriers, joins and nanosleeps.
	SyncWait
	// SchedWait is scheduler/runtime time: signal delivery, spin overshoot
	// past an injection target, and the uncategorized residue charged when
	// a thread folds.
	SchedWait

	// NumCategories bounds per-node value arrays.
	NumCategories = 6
)

var categoryNames = [NumCategories]string{
	"compute", "mem_stall", "inject_read", "inject_write", "sync_wait", "sched_wait",
}

// String returns the category's stable profile-facing name.
func (c Category) String() string {
	if int(c) < len(categoryNames) {
		return categoryNames[c]
	}
	return "unknown"
}

// Phase is an interned phase name. Interning happens at setup time
// (package init of the tagged workload, typically); pushing and popping a
// Phase on the hot path involves no strings or maps.
type Phase int32

var (
	internMu   sync.Mutex
	phaseNames []string
	phaseIDs   = map[string]Phase{}
)

// Intern returns the stable ID for a phase name, registering it on first
// use. Call it once per distinct name at setup time and keep the Phase.
func Intern(name string) Phase {
	internMu.Lock()
	defer internMu.Unlock()
	if p, ok := phaseIDs[name]; ok {
		return p
	}
	p := Phase(len(phaseNames))
	phaseNames = append(phaseNames, name)
	phaseIDs[name] = p
	return p
}

// Name resolves the phase back to its name (fold/export time only).
func (p Phase) Name() string {
	internMu.Lock()
	defer internMu.Unlock()
	if p >= 0 && int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "?"
}

// MaxDepth is the phase-stack depth limit. Pushes beyond it are counted and
// matched against pops but charge to the depth-MaxDepth node, keeping the
// hot path branch-cheap with no error plumbing.
const MaxDepth = 16

// node is one phase-stack frame of one thread's attribution tree. Children
// are a singly linked sibling list — phase stacks are shallow and narrow, so
// a linear walk beats a map and allocates nothing once the tree is built.
type node struct {
	phase  Phase
	parent *node
	child  *node
	sib    *node
	vals   [NumCategories]int64
}

// ThreadSeries accumulates one thread's virtual-time attribution. It is
// owned by the simulated thread (single kernel, cooperative scheduling), so
// no locking happens until Fold.
type ThreadSeries struct {
	prof   *Profiler
	thread string
	root   node
	cur    *node
	// last is the virtual clock at the previous charge; restFS the
	// sub-nanosecond femtosecond residue carried into the next charge.
	last   sim.Time
	restFS sim.Time
	depth  int
	// dropped counts pushes past MaxDepth so pops stay matched.
	dropped int
	folded  bool
}

// NewThread creates the series for a thread born at the given virtual time.
// On a nil profiler it returns nil, which every ThreadSeries call site must
// (and internal/simos does) guard with a pointer test.
func (p *Profiler) NewThread(name string, birth sim.Time) *ThreadSeries {
	if p == nil {
		return nil
	}
	s := &ThreadSeries{prof: p, thread: name, last: birth}
	s.root.phase = -1
	s.cur = &s.root
	return s
}

// Charge attributes the interval since the last charge to cat at the
// current phase stack, moving the watermark to now. Whole nanoseconds are
// charged; the femtosecond remainder carries into the next charge.
func (s *ThreadSeries) Charge(cat Category, now sim.Time) {
	d := now - s.last
	if d < 0 {
		d = 0
	}
	s.last = now
	s.restFS += d
	n := int64(s.restFS / sim.Nanosecond)
	if n == 0 {
		return
	}
	s.restFS -= sim.Time(n) * sim.Nanosecond
	s.cur.vals[cat] += n
}

// ChargeInjected attributes an epoch's delay injection, which spans the
// interval since the last charge: exactly floor(injected/1ns) nanoseconds go
// to the inject categories — the same per-epoch truncation the obs registry
// applies to quartz.delay.injected_ns, so profile and registry reconcile
// exactly — split between InjectWrite and InjectRead by the epoch's
// writeDelay/totalDelay ratio; the rest of the interval (spin overshoot past
// the injection target, plus carried residue) goes to SchedWait.
func (s *ThreadSeries) ChargeInjected(now sim.Time, injected, writeDelay, totalDelay sim.Time) {
	d := now - s.last
	if d < 0 {
		d = 0
	}
	s.last = now
	s.restFS += d
	total := int64(s.restFS / sim.Nanosecond)
	s.restFS -= sim.Time(total) * sim.Nanosecond
	inj := int64(injected / sim.Nanosecond)
	if inj > total {
		inj = total // unreachable: the spin overshoots the target
	}
	var w int64
	if writeDelay > 0 && totalDelay > 0 {
		w = int64(float64(inj) * (float64(writeDelay) / float64(totalDelay)))
		if w > inj {
			w = inj
		}
	}
	v := &s.cur.vals
	v[InjectWrite] += w
	v[InjectRead] += inj - w
	v[SchedWait] += total - inj
}

// Push enters a phase. The first entry of a given phase under the current
// frame allocates its node; re-entry walks the sibling list and is
// allocation-free.
func (s *ThreadSeries) Push(p Phase) {
	if s.depth >= MaxDepth {
		s.dropped++
		return
	}
	s.depth++
	for c := s.cur.child; c != nil; c = c.sib {
		if c.phase == p {
			s.cur = c
			return
		}
	}
	n := &node{phase: p, parent: s.cur, sib: s.cur.child}
	s.cur.child = n
	s.cur = n
}

// Pop leaves the current phase. Unmatched pops at the root are ignored.
func (s *ThreadSeries) Pop() {
	if s.dropped > 0 {
		s.dropped--
		return
	}
	if s.cur.parent != nil {
		s.cur = s.cur.parent
		s.depth--
	}
}

// Fold charges the residue since the last charge to SchedWait and merges
// the series into its profiler. It is idempotent; internal/simos folds at
// thread exit and defensively again after the kernel run (aborts).
func (s *ThreadSeries) Fold(now sim.Time) {
	if s == nil || s.folded {
		return
	}
	s.folded = true
	s.Charge(SchedWait, now)
	s.prof.fold(s)
}

// keySep joins frame names into sample keys; it cannot appear in names.
const keySep = "\x1f"

// Profiler aggregates the folded thread series of one job. Threads of
// several kernels (a job's paired units) may share one Profiler; folding is
// commutative, and mutex-protected because the live /vtprof endpoint
// snapshots while jobs fold.
type Profiler struct {
	mu      sync.Mutex
	samples map[string]*[NumCategories]int64
}

// New creates an empty profiler.
func New() *Profiler {
	return &Profiler{samples: make(map[string]*[NumCategories]int64)}
}

func (p *Profiler) fold(s *ThreadSeries) {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := make([]byte, 0, 64)
	var walk func(n *node)
	walk = func(n *node) {
		pre := len(key)
		if n.phase >= 0 {
			key = append(key, keySep...)
			key = append(key, n.phase.Name()...)
		}
		var any bool
		for _, v := range n.vals {
			if v != 0 {
				any = true
				break
			}
		}
		if any {
			k := s.thread + string(key)
			sv := p.samples[k]
			if sv == nil {
				sv = new([NumCategories]int64)
				p.samples[k] = sv
			}
			for i, v := range n.vals {
				sv[i] += v
			}
		}
		for c := n.child; c != nil; c = c.sib {
			walk(c)
		}
		key = key[:pre]
	}
	walk(&s.root)
}

// Snapshot returns the profiler's samples in canonical (sorted) order. A nil
// profiler snapshots empty.
func (p *Profiler) Snapshot() *Profile {
	prof := &Profile{}
	if p == nil {
		return prof
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	keys := make([]string, 0, len(p.samples))
	for k := range p.samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		prof.Samples = append(prof.Samples, Sample{
			Stack:  splitKey(k),
			Values: *p.samples[k],
		})
	}
	return prof
}

// Suite holds one profiler per runner job, created on demand. A nil Suite
// hands out nil profilers, keeping every downstream layer inert.
type Suite struct {
	mu   sync.Mutex
	jobs map[string]*Profiler
}

// NewSuite creates an empty suite.
func NewSuite() *Suite {
	return &Suite{jobs: make(map[string]*Profiler)}
}

// Job returns the profiler for the named job, creating it on first use.
func (s *Suite) Job(name string) *Profiler {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.jobs[name]
	if p == nil {
		p = New()
		s.jobs[name] = p
	}
	return p
}

// Jobs lists the job names that have profilers, sorted.
func (s *Suite) Jobs() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.jobs))
	for n := range s.jobs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// JobProfile snapshots one job's profile (empty if the job is unknown).
func (s *Suite) JobProfile(name string) *Profile {
	if s == nil {
		return &Profile{}
	}
	s.mu.Lock()
	p := s.jobs[name]
	s.mu.Unlock()
	return p.Snapshot()
}

// Merged snapshots every job and merges them into the suite profile. The
// merge is a commutative per-key sum, so the result is byte-identical
// however jobs were scheduled.
func (s *Suite) Merged() *Profile {
	if s == nil {
		return &Profile{}
	}
	profiles := make([]*Profile, 0, 8)
	for _, name := range s.Jobs() {
		profiles = append(profiles, s.JobProfile(name))
	}
	return Merge(profiles...)
}

// PprofBytes encodes the merged suite profile as gzipped pprof protobuf —
// the GET /vtprof payload.
func (s *Suite) PprofBytes() ([]byte, error) {
	return s.Merged().PprofBytes()
}
