package workload

import (
	"fmt"
	"strconv"

	"github.com/quartz-emu/quartz/internal/obs"
	"github.com/quartz-emu/quartz/internal/obs/vtprof"
	"github.com/quartz-emu/quartz/internal/sim"
	"github.com/quartz-emu/quartz/internal/simos"
)

// Interned vtprof phases: the warmup/measure windows frame each pool
// thread's run, and each operation runs under its kind's phase. Interning at
// init keeps the per-op tagging free of strings and maps.
var (
	phaseWarmup  = vtprof.Intern("warmup")
	phaseMeasure = vtprof.Intern("measure")
	opPhases     = func() [NumOpKinds]vtprof.Phase {
		var p [NumOpKinds]vtprof.Phase
		for k := range p {
			p[k] = vtprof.Intern("op:" + OpKind(k).String())
		}
		return p
	}()
)

// Target is the application-side surface a scenario drives — the three
// YCSB-style verbs. Implementations charge simulated time (loads, stores,
// compute) on the calling thread; internal/apps/kvstore.TrafficTarget adapts
// the validation KV store.
type Target interface {
	// Read looks key up, reporting presence.
	Read(t *simos.Thread, key uint64) bool
	// Update inserts or overwrites key.
	Update(t *simos.Thread, key uint64, value uint64) error
	// Scan visits up to limit items from key onward, reporting how many it
	// saw.
	Scan(t *simos.Thread, key uint64, limit int) int
}

// ScenarioConfig describes one traffic scenario: who the clients are, what
// they ask for, and how they arrive.
type ScenarioConfig struct {
	// Name labels the scenario in reports and metrics.
	Name string
	// Clients is the number of simulated clients. Client state is flat
	// struct-of-arrays (a due time, an inline generator, a done count per
	// client — a few dozen bytes each), so a literal million clients
	// multiplex over a small pool.
	Clients int
	// PoolThreads is the number of simos threads serving the clients
	// (client c is owned by thread c % PoolThreads). The pool models the
	// server's worker threads; client count beyond it creates queueing.
	PoolThreads int
	// WarmupOps is the per-client op count run before the measurement
	// window opens. Warmup ops never reach the histograms or metrics.
	WarmupOps int
	// MeasureOps is the per-client measured op count.
	MeasureOps int
	// Keys is the key-popularity distribution. Required.
	Keys KeyDist
	// Mix is the operation blend.
	Mix Mix
	// Seed drives every client stream (see ClientState).
	Seed uint64
	// ArrivalPeriod, when positive, switches the scenario to an open loop:
	// each client issues requests on a fixed schedule (one per period,
	// phase-staggered across clients) regardless of completions, so
	// latency includes queueing backlog once the pool saturates. Zero is
	// the closed loop.
	ArrivalPeriod sim.Time
	// CloseEpoch, when non-nil, is invoked per pool thread before its final
	// timestamp, and on main before the window opens, so trailing epoch
	// delays land inside the measured window. Pass bench.Env.CloseEpoch,
	// which settles the thread's epoch as simos.Thread.SettledNow does.
	CloseEpoch func(*simos.Thread)
	// Obs, when non-nil, feeds the live introspection plane: per-op-kind
	// quartz.ops.* counters and latency histograms, and the quartz.traffic.*
	// progress gauges. It never influences the measured result.
	Obs *obs.Recorder

	// sched forces a specific next-due picker for the scheduler
	// equivalence tests; the zero value selects automatically.
	sched schedMode
}

// flushEvery is the number of measured ops between refreshes of the live
// quartz.ops.* metrics — which the measured-op path batches in per-worker
// plain histograms — and of the quartz.traffic.* progress gauges.
const flushEvery = 4096

// Validate reports configuration errors.
func (c ScenarioConfig) Validate() error {
	if c.Clients <= 0 || c.PoolThreads <= 0 || c.MeasureOps <= 0 || c.WarmupOps < 0 {
		return fmt.Errorf("workload: bad scenario sizing (clients=%d pool=%d measure=%d warmup=%d)",
			c.Clients, c.PoolThreads, c.MeasureOps, c.WarmupOps)
	}
	if c.Keys == nil || c.Keys.N() == 0 {
		return fmt.Errorf("workload: scenario %q has no key distribution", c.Name)
	}
	if c.ArrivalPeriod < 0 {
		return fmt.Errorf("workload: negative arrival period")
	}
	return c.Mix.Validate()
}

// Latencies are a scenario's measured-op latency histograms: one per op
// kind plus the all-ops aggregate, in the obs power-of-two form (so
// p50/p95/p99 come straight from Snapshot).
type Latencies struct {
	All  obs.Histogram
	Kind [NumOpKinds]obs.Histogram
}

// ScenarioResult is one scenario's measured outcome. All quantities are
// simulated time — deterministic for a given configuration.
type ScenarioResult struct {
	Name    string
	Clients int
	// CT is the measurement window: barrier release to the last pool
	// thread's completion.
	CT sim.Time
	// Ops counts measured operations (Clients * MeasureOps on success).
	Ops int64
	// Counts breaks Ops down by kind.
	Counts [NumOpKinds]int64
	// OpsPerSec is the measured throughput in simulated time.
	OpsPerSec float64
	// Lat holds the latency histograms. Latency is response time: op
	// completion minus the op's due time, so it includes time spent queued
	// behind other clients on the pool (closed loop) or behind the arrival
	// schedule (open loop).
	Lat *Latencies
}

// Quantiles reports the all-ops p50/p95/p99 in nanoseconds.
func (r ScenarioResult) Quantiles() (p50, p95, p99 float64) {
	s := r.Lat.All.Snapshot()
	return s.P50, s.P95, s.P99
}

// liveMetrics caches the registry handles the engine feeds per metric
// flush, so the flush path never touches the registry's name map.
type liveMetrics struct {
	allCount  *obs.Counter
	allLat    *obs.Histogram
	kindCount [NumOpKinds]*obs.Counter
	kindLat   [NumOpKinds]*obs.Histogram
}

// newLiveMetrics resolves the quartz.ops.* metric family, or nil when no
// recorder is attached.
func newLiveMetrics(rec *obs.Recorder) *liveMetrics {
	reg := rec.Registry()
	if reg == nil {
		return nil
	}
	lm := &liveMetrics{
		allCount: reg.Counter("quartz.ops.count"),
		allLat:   reg.Histogram("quartz.ops.latency_ns"),
	}
	for k := 0; k < NumOpKinds; k++ {
		name := OpKind(k).String()
		lm.kindCount[k] = reg.Counter("quartz.ops." + name + ".count")
		lm.kindLat[k] = reg.Histogram("quartz.ops." + name + ".latency_ns")
	}
	return lm
}

// scenario is the per-run state every pool worker shares. Pool threads
// interleave cooperatively within one simulation kernel, so the plain
// (non-atomic) fields are race-free.
type scenario struct {
	cfg    *ScenarioConfig
	target Target
	lm     *liveMetrics
	lat    *Latencies // the assembled result histograms (flush destination)
	pool   int
	// readMax/updMax are the mix's cumulative per-mille thresholds, hoisted
	// so the per-op kind draw is two compares.
	readMax, updMax int
	totalOps        int64
	// measured counts measured ops across workers; it times live-metric
	// flushes and progress-gauge refreshes only, never the result.
	measured int64
	firstErr error
}

// worker is one pool thread's client state, flattened struct-of-arrays
// style: position i owns global client c = w + i*pool, and its due time,
// generator state and per-phase done count live in parallel slices
// preallocated to the exact owned count at spawn — a million clients are a
// few flat slices, not a million heap objects.
type worker struct {
	sc *scenario
	w  int

	due  []sim.Time // next due time per owned client
	gen  []LCG      // inline generator state (8 bytes per client)
	done []int32    // ops completed in the current phase

	heap heap4
	fifo fifoRing

	record bool
	mStart sim.Time // measurement-phase start, for the progress gauges

	// Measured-op tallies, recorded plain (no atomics) on the op path and
	// merged positionally into the scenario result after the join; the
	// flushed* fields track what has already left for the live registry.
	// lat feeds both the result histograms and the registry from one flush
	// stream.
	counts        [NumOpKinds]int64
	flushedCounts [NumOpKinds]int64
	flushedAll    int64
	lat           struct {
		all  obs.LocalHistogram
		kind [NumOpKinds]obs.LocalHistogram
	}
}

// ownedCount reports how many of n clients position-map onto worker w of a
// pool-sized pool (the c == w mod pool owners).
func ownedCount(n, pool, w int) int {
	if w >= n {
		return 0
	}
	return (n-1-w)/pool + 1
}

// init preallocates the worker's flat client state to its exact owned
// count and seeds every generator from (Seed, global client index) — the
// same streams for any PoolThreads value.
func (wk *worker) init() {
	cfg := wk.sc.cfg
	n := ownedCount(cfg.Clients, wk.sc.pool, wk.w)
	wk.due = make([]sim.Time, n)
	wk.gen = make([]LCG, n)
	wk.done = make([]int32, n)
	for i := 0; i < n; i++ {
		wk.gen[i] = NewLCG(ClientState(cfg.Seed, wk.w+i*wk.sc.pool))
	}
	// Preallocate only the picker the run needs: the calendar and the
	// linear scan need none, the FIFO ring one int32 per client (its heap
	// fallback grows lazily in the rare zero-time-op case), the forced heap
	// mode the heap.
	if cfg.sched == schedAuto && cfg.ArrivalPeriod == 0 {
		wk.fifo.buf = make([]int32, n)
	} else if cfg.sched == schedHeap {
		wk.heap.idx = make([]int32, 0, n)
	}
}

// runOne executes client position i's next op, recording its latency when
// the measurement window is open, and advances the client's due time.
func (wk *worker) runOne(t *simos.Thread, i int32) bool {
	sc := wk.sc
	cfg := sc.cfg
	now := t.Now()
	due := wk.due[i]
	if due > now {
		if err := t.Nanosleep(due - now); err != nil {
			// No signals are used; an interrupt is a bug.
			t.Failf("workload: %v", err)
		}
	}
	op := nextOp(&wk.gen[i], cfg.Keys, sc.readMax, sc.updMax)
	// The op runs under its kind's phase; the due-time sleep above stays
	// under the window phase (it is queueing, not op work).
	t.PushPhase(opPhases[op.Kind])
	err := applyOp(t, sc.target, op, cfg.Mix.ScanLen, uint64(wk.done[i]))
	t.PopPhase()
	if err != nil {
		if sc.firstErr == nil {
			sc.firstErr = err
		}
		return false
	}
	end := t.Now()
	if wk.record {
		lat := int64((end - due) / sim.Nanosecond)
		wk.lat.all.Observe(lat)
		wk.lat.kind[op.Kind].Observe(lat)
		wk.counts[op.Kind]++
		sc.measured++
		if sc.measured%flushEvery == 0 {
			wk.flush()
			publishProgress(cfg, sc.measured, sc.totalOps, end-wk.mStart, sc.lat.All.Quantile(0.99))
		}
	}
	wk.done[i]++
	if cfg.ArrivalPeriod > 0 {
		wk.due[i] = due + cfg.ArrivalPeriod
	} else {
		wk.due[i] = end
	}
	return true
}

// flush folds the tallies recorded since the previous flush into the
// scenario result histograms and, when live metrics are attached, the
// quartz.ops.* registry — the metric batching that keeps the measured-op
// path free of atomic operations. Histogram merges are commutative adds, so
// the assembled result is identical however flushes interleave.
func (wk *worker) flush() {
	sc := wk.sc
	var allReg *obs.Histogram
	if sc.lm != nil {
		allReg = sc.lm.allLat
	}
	wk.lat.all.FlushInto(&sc.lat.All, allReg)
	for k := 0; k < NumOpKinds; k++ {
		var kindReg *obs.Histogram
		if sc.lm != nil {
			kindReg = sc.lm.kindLat[k]
		}
		wk.lat.kind[k].FlushInto(&sc.lat.Kind[k], kindReg)
	}
	if sc.lm == nil {
		return
	}
	var all int64
	for k, n := range wk.counts {
		if d := n - wk.flushedCounts[k]; d != 0 {
			sc.lm.kindCount[k].Add(d)
			wk.flushedCounts[k] = n
		}
		all += n
	}
	if d := all - wk.flushedAll; d != 0 {
		sc.lm.allCount.Add(d)
		wk.flushedAll = all
	}
}

// runPhase serves whichever owned client is due next (ties to the lowest
// position), one op per pick, until every one has done limit ops.
func (wk *worker) runPhase(t *simos.Thread, limit int32, record bool) bool {
	sc := wk.sc
	cfg := sc.cfg
	start := t.Now()
	wk.record = record
	if record {
		t.PushPhase(phaseMeasure)
	} else {
		t.PushPhase(phaseWarmup)
	}
	defer t.PopPhase()
	if record {
		wk.mStart = start
	}
	n := int32(len(wk.due))
	for i := int32(0); i < n; i++ {
		wk.done[i] = 0
		if cfg.ArrivalPeriod > 0 {
			// Phase-stagger the open-loop schedules so arrivals spread over
			// the period instead of thundering in herds. The global client
			// index keeps the schedule independent of the pool size.
			c := wk.w + int(i)*sc.pool
			wk.due[i] = start + cfg.ArrivalPeriod*sim.Time(c)/sim.Time(cfg.Clients)
		} else {
			wk.due[i] = start
		}
	}
	ok := true
	switch {
	case limit <= 0 || n == 0:
		// Nothing to serve (WarmupOps == 0).
	case cfg.sched == schedLinear:
		ok = wk.runLinear(t, limit)
	case cfg.sched == schedAuto && cfg.ArrivalPeriod > 0:
		ok = wk.runCalendar(t, limit)
	case cfg.sched == schedAuto:
		ok = wk.runFIFO(t, limit)
	default:
		wk.heap.due = wk.due
		wk.heap.resetAll(n)
		ok = wk.heapLoop(t, limit)
	}
	if record {
		wk.flush()
	}
	return ok
}

// runLinear is the reference picker the optimized schedulers are held to:
// scan every owned client, serve the earliest due with ties to the lowest
// position — exactly the pre-flattening engine's behavior, O(owned) per op.
func (wk *worker) runLinear(t *simos.Thread, limit int32) bool {
	n := int32(len(wk.due))
	for {
		next := int32(-1)
		for i := int32(0); i < n; i++ {
			if wk.done[i] < limit && (next < 0 || wk.due[i] < wk.due[next]) {
				next = i
			}
		}
		if next < 0 {
			return true
		}
		if !wk.runOne(t, next) {
			return false
		}
	}
}

// runCalendar serves the open-loop fixed-arrival schedule in rounds, O(1)
// per pick with no bookkeeping at all. The initial dues are nondecreasing
// in position and all inside one arrival period, and every op advances its
// client by exactly one period, so (due, position) order is provably strict
// round-robin: round r serves positions 0..n-1 in order, and every due in
// round r precedes every due in round r+1.
func (wk *worker) runCalendar(t *simos.Thread, limit int32) bool {
	n := int32(len(wk.due))
	for r := int32(0); r < limit; r++ {
		for i := int32(0); i < n; i++ {
			if !wk.runOne(t, i) {
				return false
			}
		}
	}
	return true
}

// runFIFO serves the closed loop from a ring, O(1) per
// pick: a served client's next due is its completion time, which simulated
// -time monotonicity puts at or past every other owned client's due, so the
// earliest-due client is the least recently served one. Every re-append is
// guarded — the new key must follow the ring's back in (due, position)
// order, which only an op completing in zero simulated time can violate —
// and on violation the remaining picks fall back to the heap; picks made
// before the fallback were already correct.
func (wk *worker) runFIFO(t *simos.Thread, limit int32) bool {
	wk.fifo.reset(int32(len(wk.due)))
	for wk.fifo.size > 0 {
		i := wk.fifo.pop()
		if !wk.runOne(t, i) {
			return false
		}
		if wk.done[i] >= limit {
			continue
		}
		if wk.fifo.size > 0 {
			back := wk.fifo.back()
			if d, bd := wk.due[i], wk.due[back]; d < bd || d == bd && i < back {
				wk.fifo.push(i)
				wk.heap.due = wk.due
				wk.heap.idx = wk.fifo.drain(wk.heap.idx[:0])
				wk.heap.heapify()
				return wk.heapLoop(t, limit)
			}
		}
		wk.fifo.push(i)
	}
	return true
}

// heapLoop serves from the 4-ary heap: peek the minimum, run it, then
// either drop it (quota reached) or sift its advanced due time back down —
// one O(log4 owned) fix per op.
func (wk *worker) heapLoop(t *simos.Thread, limit int32) bool {
	for wk.heap.len() > 0 {
		i := wk.heap.min()
		if !wk.runOne(t, i) {
			return false
		}
		if wk.done[i] >= limit {
			wk.heap.popMin()
		} else {
			wk.heap.fixMin()
		}
	}
	return true
}

// RunScenario drives cfg against target from main, spawning the pool,
// running the warmup phase, opening the measurement window at a pool-wide
// barrier, and collecting the measured ops. The returned result depends only
// on the configuration (never on the host's scheduling), and per-client op
// streams depend only on (Seed, client index) — the same streams for any
// PoolThreads value.
func RunScenario(main *simos.Thread, target Target, cfg ScenarioConfig) (ScenarioResult, error) {
	if err := cfg.Validate(); err != nil {
		return ScenarioResult{}, err
	}
	res := ScenarioResult{Name: cfg.Name, Clients: cfg.Clients, Lat: &Latencies{}}

	pool := cfg.PoolThreads
	if pool > cfg.Clients {
		pool = cfg.Clients
	}
	// The measurement barrier: every pool thread finishes warmup, then main
	// stamps the window open; injected emulator delays propagate through the
	// barrier like any sync event.
	bar, err := main.Process().NewBarrier(cfg.Name+"-measure", pool+1)
	if err != nil {
		return ScenarioResult{}, err
	}

	sc := &scenario{
		cfg:      &cfg,
		target:   target,
		lm:       newLiveMetrics(cfg.Obs),
		lat:      res.Lat,
		pool:     pool,
		readMax:  cfg.Mix.Read,
		updMax:   cfg.Mix.Read + cfg.Mix.Update,
		totalOps: int64(cfg.Clients) * int64(cfg.MeasureOps),
	}

	// Per-worker state, merged by position after the join so the result
	// never depends on worker completion order.
	ws := make([]worker, pool)

	// Build pool thread names by appending to one shared prefix buffer —
	// no per-thread fmt.Sprintf.
	nameBuf := make([]byte, 0, len(cfg.Name)+len("-pool-")+20)
	nameBuf = append(nameBuf, cfg.Name...)
	nameBuf = append(nameBuf, "-pool-"...)

	workers := make([]*simos.Thread, 0, pool)
	for w := 0; w < pool; w++ {
		wk := &ws[w]
		wk.sc, wk.w = sc, w
		th, err := main.CreateThread(string(strconv.AppendInt(nameBuf, int64(w), 10)), func(t *simos.Thread) {
			wk.init()
			// Warmup, then rendezvous: the window opens only after every
			// pool thread has finished warming up.
			warmOK := wk.runPhase(t, int32(cfg.WarmupOps), false)
			bar.Wait(t)
			if !warmOK {
				return
			}
			wk.runPhase(t, int32(cfg.MeasureOps), true)
			if cfg.CloseEpoch != nil {
				cfg.CloseEpoch(t)
			}
		})
		if err != nil {
			return ScenarioResult{}, fmt.Errorf("workload: spawning pool thread %d: %w", w, err)
		}
		workers = append(workers, th)
	}

	// Main arrives at the barrier last-ish; the release time — which carries
	// any delay injected during warmup — opens the window. Flush main's own
	// pending epoch delay first so it lands before the window, not inside.
	if cfg.CloseEpoch != nil {
		cfg.CloseEpoch(main)
	}
	bar.Wait(main)
	winStart := main.Now()

	var end sim.Time
	for _, th := range workers {
		main.Join(th)
		if th.Now() > end {
			end = th.Now()
		}
	}
	if sc.firstErr != nil {
		return ScenarioResult{}, sc.firstErr
	}
	res.CT = end - winStart
	for w := range ws {
		for k, n := range ws[w].counts {
			res.Counts[k] += n
			res.Ops += n
		}
	}
	if secs := res.CT.Seconds(); secs > 0 {
		res.OpsPerSec = float64(res.Ops) / secs
	}
	publishProgress(&cfg, res.Ops, sc.totalOps, res.CT, res.Lat.All.Quantile(0.99))
	return res, nil
}

// applyOp executes one generated operation against the target.
func applyOp(t *simos.Thread, target Target, op Op, scanLen int, val uint64) error {
	switch op.Kind {
	case OpRead:
		target.Read(t, op.Key)
		return nil
	case OpUpdate:
		return target.Update(t, op.Key, val)
	default:
		target.Scan(t, op.Key, scanLen)
		return nil
	}
}

// publishProgress refreshes the live traffic gauges when a recorder is
// attached.
func publishProgress(cfg *ScenarioConfig, done, total int64, elapsed sim.Time, p99 float64) {
	if cfg.Obs == nil {
		return
	}
	opsPerSec := 0.0
	if secs := elapsed.Seconds(); secs > 0 {
		opsPerSec = float64(done) / secs
	}
	cfg.Obs.TrafficProgress(cfg.Clients, done, total, opsPerSec, p99)
}
