package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"github.com/quartz-emu/quartz/internal/experiments"
)

// phase classifies a unit's host time. build and preload are set-up; only
// measure counts toward wall_s and cpu_s.
type phase int

const (
	phaseNone phase = iota
	phaseBuild
	phasePreload
	phaseMeasure
	phaseCollect
	numPhases
)

var phaseNames = [numPhases]string{"", "build", "preload", "measure", "collect"}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phaser splits one unit run's host time into phases. Each enter closes the
// current call into a layer and opens the next; on a traced run every call
// becomes a span and the phase becomes the goroutine's pprof label. Between
// the two it runs the reference kernel (ref.go), outside both, so every
// phase is bracketed by reference times taken at its own boundaries.
type phaser struct {
	unit   string
	tr     *tracer // nil on an untraced run
	labels context.Context
	parent int // the unit's span

	cur   phase
	call  string
	id    int // the current call's span
	start time.Time
	cpu0  time.Duration
	wall  [numPhases]time.Duration
	cpu   [numPhases]time.Duration
	// refSum and refN accumulate the reference times taken at each phase's
	// boundaries.
	refSum [numPhases]time.Duration
	refN   [numPhases]int
}

func (p *phaser) enter(ph phase, call string) {
	now, cpu := time.Now(), cpuTime()
	if p.cur != phaseNone {
		p.wall[p.cur] += now.Sub(p.start)
		p.cpu[p.cur] += cpu - p.cpu0
		p.tr.record(p.id, p.parent, p.unit, p.call, phaseNames[p.cur], p.start, now)
	}
	r := refTime()
	for _, b := range []phase{p.cur, ph} {
		p.refSum[b] += r
		p.refN[b]++
	}
	p.cur, p.call, p.start, p.cpu0 = ph, call, time.Now(), cpuTime()
	if p.tr != nil && ph != phaseNone {
		p.id = p.tr.newID()
		pprof.SetGoroutineLabels(pprof.WithLabels(p.labels, pprof.Labels("phase", phaseNames[ph])))
	}
}

// wrapJob times one runner job as a child span of the current call; it is
// the identity on an untraced run.
func (p *phaser) wrapJob(name string, run func() (experiments.Metrics, error)) func() (experiments.Metrics, error) {
	if p.tr == nil {
		return run
	}
	return func() (experiments.Metrics, error) {
		id, parent, start := p.tr.newID(), p.id, time.Now()
		m, err := run()
		p.tr.record(id, parent, p.unit, name, phaseNames[phaseMeasure], start, time.Now())
		return m, err
	}
}

// span is one benchmark-side call into a layer, as written to
// <workload>.spans.jsonl. Times are nanoseconds since the traced phase
// began; parent 0 is the run itself.
type span struct {
	Run     string `json:"run"`
	Unit    string `json:"unit,omitempty"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Phase   string `json:"phase,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps a traced phase's spans in memory until the run ends. A nil
// tracer records nothing.
type tracer struct {
	run string
	t0  time.Time

	mu    sync.Mutex
	next  int
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

func (t *tracer) newID() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) record(id, parent int, unit, name, ph string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Run: t.run, Unit: unit, ID: id, Parent: parent, Name: name, Phase: ph,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds()})
}

func (t *tracer) write(path string) error {
	var b []byte
	for _, s := range t.spans {
		line, err := json.Marshal(s)
		if err != nil {
			return err
		}
		b = append(append(b, line...), '\n')
	}
	return os.WriteFile(path, b, 0o644)
}

// sample is one successful unit run's host time by phase.
type sample struct {
	kind      int // the unit's index in the pass
	wall, cpu [numPhases]time.Duration
	ref       [numPhases]time.Duration // mean reference time at each phase's boundaries
	accesses  float64
	allocMB   float64 // heap allocated during the run
	gcCycles  float64 // GC cycles completed during the run
}

// norm is host duration d of phase ph of s in seconds at the reference
// speed (ref.go).
func (s sample) norm(ph phase, d time.Duration) float64 {
	if d == 0 {
		return 0
	}
	return d.Seconds() * refNominal.Seconds() / s.ref[ph].Seconds()
}

// passes is what a stretch of back-to-back passes measured.
type passes struct {
	n       int
	elapsed time.Duration
	samples []sample
}

// perPass sums over a pass's units the median of each unit's repeats of f,
// so the figure describes one pass however many passes ran.
func (ps passes) perPass(f func(sample) float64) float64 {
	byKind := map[int][]float64{}
	for _, s := range ps.samples {
		byKind[s.kind] = append(byKind[s.kind], f(s))
	}
	var sum float64
	for _, xs := range byKind {
		sum += median(xs)
	}
	return sum
}

// normWall is the per-pass normalized wall time of phase ph.
func (ps passes) normWall(ph phase) float64 {
	return ps.perPass(func(s sample) float64 { return s.norm(ph, s.wall[ph]) })
}

// rawWall is the per-pass host wall time of phase ph, not normalized.
func (ps passes) rawWall(ph phase) float64 {
	return ps.perPass(func(s sample) float64 { return s.wall[ph].Seconds() })
}

// hostNSPerAccess is the median over unit runs of normalized measured host
// ns per simulated L1 access; 0 when no unit reports accesses.
func (ps passes) hostNSPerAccess() float64 {
	var xs []float64
	for _, s := range ps.samples {
		if s.accesses > 0 {
			xs = append(xs, s.norm(phaseMeasure, s.wall[phaseMeasure])*1e9/s.accesses)
		}
	}
	return median(xs)
}

// refMS is the median reference-kernel time in milliseconds: how fast the
// host ran.
func (ps passes) refMS() float64 {
	var xs []float64
	for _, s := range ps.samples {
		xs = append(xs, float64(s.ref[phaseMeasure].Nanoseconds())/1e6)
	}
	return median(xs)
}

// harness runs one workload's units, checks every outcome and keeps the
// timing samples.
type harness struct {
	workload string
	units    []unit
	// want holds each unit's expected outputs: testdata/expected.json when
	// it applies, otherwise the unit's first successful run.
	want  []simOut
	first []*outcome
	tr    *tracer

	attempted, failed int
	errs              []string
}

func newHarness(w workload, units []unit, want map[string]simOut) *harness {
	h := &harness{workload: w.name, units: units, want: make([]simOut, len(units)), first: make([]*outcome, len(units))}
	for k, u := range units {
		if want != nil {
			h.want[k] = want[u.name]
			if h.want[k] == nil {
				h.want[k] = simOut{"missing": "unit not in testdata/expected.json"}
			}
		}
	}
	return h
}

// runUnit runs unit k once and checks its outputs; ok is false when it
// failed either way. Like testing.B, it collects garbage first, so a unit
// does not pay for the previous one's.
func (h *harness) runUnit(k int) (s sample, ok bool) {
	u := h.units[k]
	ph := &phaser{unit: u.name, tr: h.tr, labels: context.Background()}
	runtime.GC()
	alloc0, gc0 := runtimeStats()
	out, err := h.call(u, ph)
	alloc1, gc1 := runtimeStats()
	h.attempted++
	if err == nil {
		err = h.check(k, out)
	}
	if err != nil {
		h.failed++
		if len(h.errs) < 10 {
			h.errs = append(h.errs, fmt.Sprintf("%s: %v", u.name, err))
		}
		return sample{}, false
	}
	s = sample{kind: k, wall: ph.wall, cpu: ph.cpu, accesses: out.counts["cache.l1.accesses"],
		allocMB: (alloc1 - alloc0) / (1 << 20), gcCycles: gc1 - gc0}
	for p, n := range ph.refN {
		if n > 0 {
			s.ref[p] = ph.refSum[p] / time.Duration(n)
		}
	}
	return s, true
}

// call runs u under its pprof labels (on a traced run), converting a panic
// on this goroutine into a failed unit.
func (h *harness) call(u unit, ph *phaser) (out outcome, err error) {
	start := time.Now()
	if h.tr != nil {
		ph.parent = h.tr.newID()
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
		ph.enter(phaseNone, "")
		h.tr.record(ph.parent, 0, u.name, u.name, "", start, time.Now())
	}()
	if h.tr == nil {
		return u.run(ph)
	}
	pprof.Do(context.Background(), pprof.Labels("workload", h.workload, "unit", u.name), func(ctx context.Context) {
		ph.labels = ctx
		out, err = u.run(ph)
	})
	return out, err
}

func (h *harness) check(k int, out outcome) error {
	if h.first[k] == nil {
		h.first[k] = &out
	}
	if h.want[k] == nil {
		h.want[k] = out.sim
		return nil
	}
	if !maps.Equal(h.want[k], out.sim) {
		return fmt.Errorf("simulated outputs %v, want %v", out.sim, h.want[k])
	}
	return nil
}

// run repeats passes until the next one is predicted to end past budget,
// always running at least one.
func (h *harness) run(budget time.Duration) passes {
	var ps passes
	start := time.Now()
	for ps.n == 0 || ps.elapsed+ps.elapsed/time.Duration(ps.n) <= budget {
		for k := range h.units {
			if s, ok := h.runUnit(k); ok {
				ps.samples = append(ps.samples, s)
			}
		}
		ps.n++
		ps.elapsed = time.Since(start)
	}
	return ps
}

// sims are the first successful outputs of every unit, by unit name.
func (h *harness) sims() map[string]simOut {
	m := map[string]simOut{}
	for k, o := range h.first {
		if o != nil {
			m[h.units[k].name] = o.sim
		}
	}
	return m
}

// digest hashes every unit's simulated outputs: equal digests mean the
// simulations produced identical results.
func digest(sims map[string]simOut) string {
	b, _ := json.Marshal(sims) // maps of strings always marshal
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// emuErrPct is the mean over Conf_2/Conf_1 pairs of |CT1 - CT2| / CT2, in
// percent; 0 on a workload without pairs.
func (h *harness) emuErrPct() float64 {
	ct := map[string][3]float64{}
	for k, o := range h.first {
		if u := h.units[k]; o != nil && u.conf != 0 {
			p := ct[u.pair]
			p[u.conf] = float64(o.ct)
			ct[u.pair] = p
		}
	}
	var sum float64
	var n int
	for _, p := range ct {
		if p[1] > 0 && p[2] > 0 {
			sum += math.Abs(p[1]-p[2]) / p[2]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n) * 100
}

// runtimeStats samples the allocation and GC-cycle totals of runtime/metrics.
func runtimeStats() (allocBytes, gcCycles float64) {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	rtmetrics.Read(s)
	return float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())
}

// childReport is what one workload's child process hands its parent.
type childReport struct {
	Workload  string            `json:"workload"`
	Passes    int               `json:"passes"`
	Units     int               `json:"units"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   metrics           `json:"metrics"`
	Digest    string            `json:"digest"`
	Sims      map[string]simOut `json:"sims"`
}

// measureWorkload runs w in this process: one warm-up pass that fills lazy
// caches (and is checked like every other), then the measured passes. An
// untraced run measures for the whole budget and reports the end-to-end
// metrics. A traced run measures half the budget untraced, then half under
// the CPU profile with spans, and reports the per-layer metrics.
func measureWorkload(w workload, o options) (childReport, error) {
	units := w.units(o.sizes, o.seed)
	h := newHarness(w, units, o.expected(w.name))
	budget := time.Duration(o.seconds * float64(time.Second))

	warm := h.run(0)
	if o.trace {
		budget /= 2
	}
	a := h.run(budget)

	m := metrics{}
	wall := a.normWall(phaseMeasure)
	if !o.trace {
		m.set("wall_s", wall)
		m.set("cpu_s", a.perPass(func(s sample) float64 { return s.norm(phaseMeasure, s.cpu[phaseMeasure]) }))
		m.set("setup_s", a.perPass(func(s sample) float64 {
			return s.norm(phaseBuild, s.wall[phaseBuild]) + s.norm(phasePreload, s.wall[phasePreload])
		}))
	} else {
		b, prof, err := tracedPasses(h, o.traceDir, budget)
		if err != nil {
			return childReport{}, err
		}
		pass := counts{}
		for _, out := range h.first {
			if out != nil {
				pass.add(out.counts)
			}
		}
		m = countMetrics(pass)
		perPass := func(ns int64) float64 { return float64(ns) / 1e9 / float64(b.n) }
		for _, l := range layers {
			m.set(l+".cpu_s", perPass(prof.ns[l]))
		}
		m.set("profile.cpu_s", perPass(prof.total))
		m.set("span.warmup_s", warm.elapsed.Seconds())
		m.set("span.build_s", b.rawWall(phaseBuild))
		m.set("span.preload_s", b.rawWall(phasePreload))
		m.set("span.measure_s", b.rawWall(phaseMeasure))
		m.set("span.collect_s", b.rawWall(phaseCollect))
		m.set("ref.ms", a.refMS())
		nsPer := func(ns int64, n float64) float64 { return ratio(perPass(ns)*1e9, n) }
		m.set("cache.ns_per_access", nsPer(prof.ns["cache"]+prof.ns["cache.prefetch"], pass["cache.l1.accesses"]))
		m.set("sim.ns_per_dispatch", nsPer(prof.ns["sim"]+prof.ns["runtime.sched"], pass["sim.dispatches"]))
		m.set("core.us_per_epoch", nsPer(prof.ns["core"], pass["core.epochs"])/1e3)
		m.set("workload.ns_per_op", nsPer(prof.ns["workload"], pass["workload.ops"]))
		m.set("host_ns_per_access", a.hostNSPerAccess())
		m.set("emu_err_pct", h.emuErrPct())
		m.set("runtime.alloc_mb", a.perPass(func(s sample) float64 { return s.allocMB }))
		m.set("runtime.gc_cycles", a.perPass(func(s sample) float64 { return s.gcCycles }))
		m.set("trace.overhead_pct", (ratio(b.normWall(phaseMeasure), wall)-1)*100)
	}
	sims := h.sims()
	return childReport{
		Workload: w.name, Passes: a.n, Units: len(units),
		Attempted: h.attempted, Failed: h.failed, Errors: h.errs,
		Metrics: m, Digest: digest(sims), Sims: sims,
	}, nil
}

// tracedPasses runs passes for budget under the CPU profile with spans on,
// writes <workload>.cpu.pprof and <workload>.spans.jsonl into dir, and
// returns the passes and the profile split by layer.
func tracedPasses(h *harness, dir string, budget time.Duration) (passes, attribution, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return passes{}, attribution{}, err
	}
	profPath := filepath.Join(dir, h.workload+".cpu.pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return passes{}, attribution{}, err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return passes{}, attribution{}, err
	}
	h.tr = newTracer(fmt.Sprintf("%s-%d", h.workload, time.Now().UnixNano()))
	b := h.run(budget)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return passes{}, attribution{}, err
	}
	if err := h.tr.write(filepath.Join(dir, h.workload+".spans.jsonl")); err != nil {
		return passes{}, attribution{}, err
	}
	h.tr = nil
	raw, err := os.ReadFile(profPath)
	if err != nil {
		return passes{}, attribution{}, err
	}
	samples, err := decodeCPUProfile(raw)
	if err != nil {
		return passes{}, attribution{}, err
	}
	return b, attribute(samples), nil
}
