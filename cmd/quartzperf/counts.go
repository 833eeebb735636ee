package main

import (
	"fmt"
	"strconv"

	"github.com/quartz-emu/quartz/internal/bench"
	"github.com/quartz-emu/quartz/internal/cache"
)

// counts are the layers' simulated activity, keyed by per-layer metric name
// (plus the raw miss and queue totals the ratios are derived from). They
// are deterministic for a given seed, so any run can report them.
type counts map[string]float64

// envCounts reads the public Stats() of every cache, memory controller, the
// simulation kernel and the emulator of env after its run.
func envCounts(env *bench.Env) counts {
	c := counts{}
	addCache := func(level string, s cache.Stats) {
		c[level+".accesses"] += float64(s.Hits + s.Misses)
		c[level+".misses"] += float64(s.Misses)
		c[level+".dirty_evictions"] += float64(s.DirtyEvictions)
	}
	for _, s := range env.Mach.Sockets() {
		for _, core := range s.Cores {
			addCache("cache.l1", core.L1().Stats())
			addCache("cache.l2", core.L2().Stats())
		}
		addCache("cache.l3", s.L3.Stats())
		m := s.Ctrl.Stats()
		c["mem.reads"] += float64(m.Reads)
		c["mem.writes"] += float64(m.Writes)
		c["mem.writebacks"] += float64(m.Writebacks)
		c["mem.prefetches"] += float64(m.Prefetches)
		c["mem.queue_ns"] += m.QueueTime.Nanoseconds()
	}
	ks := env.Proc.Kernel().Stats()
	c["sim.dispatches"] = float64(ks.Dispatches)
	c["sim.spawned"] = float64(ks.Spawned)
	if env.Emu != nil {
		es := env.Emu.Stats()
		c["core.epochs"] = float64(es.Epochs)
		c["core.sync_epochs"] = float64(es.SyncEpochs)
		c["core.injected_ms"] = es.Injected.Milliseconds()
		c["core.write_delay_ms"] = es.WriteDelay.Milliseconds()
		c["core.store_misses"] = float64(es.StoreMisses)
	}
	return c
}

func (c counts) add(o counts) {
	for k, v := range o {
		c[k] += v
	}
}

// expect is an output invariant: count name must equal want exactly.
func (c counts) expect(name string, want int64) error {
	if got := c[name]; got != float64(want) {
		return fmt.Errorf("%s = %.0f, want %d", name, got, want)
	}
	return nil
}

// sim picks the named counts as simulated outputs.
func (c counts) sim(names ...string) simOut {
	s := simOut{}
	for _, n := range names {
		s[n] = strconv.FormatFloat(c[n], 'f', -1, 64)
	}
	return s
}

// simOut is a unit's simulated outputs, formatted exactly so they compare as
// strings.
type simOut map[string]string

func (s simOut) with(name string, v int64) simOut {
	s[name] = strconv.FormatInt(v, 10)
	return s
}

// ratio is a/b, or 0 when b is 0 (the layer did no work on this workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// countMetrics derives the simulated per-layer metrics of one pass.
func countMetrics(c counts) metrics {
	m := metrics{}
	for _, name := range []string{
		"cache.l1.accesses", "cache.l3.dirty_evictions",
		"mem.reads", "mem.writes", "mem.writebacks", "mem.prefetches",
		"sim.dispatches", "sim.spawned",
		"core.epochs", "core.sync_epochs", "core.store_misses",
		"core.injected_ms", "core.write_delay_ms",
		"workload.ops", "obs.ledger_records", "runner.jobs",
	} {
		m.set(name, c[name])
	}
	for _, l := range []string{"cache.l1", "cache.l2", "cache.l3"} {
		m.set(l+".miss_ratio", ratio(c[l+".misses"], c[l+".accesses"]))
	}
	m.set("mem.queue_ns_per_req", ratio(c["mem.queue_ns"],
		c["mem.reads"]+c["mem.writes"]+c["mem.writebacks"]+c["mem.prefetches"]))
	return m
}
