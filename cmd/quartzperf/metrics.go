package main

import (
	"fmt"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports: what a user of the
// emulator pays, in host time and memory, to get the workload's answers.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// layers are the host-time buckets of a traced run's CPU profile, one per
// package under internal/ (see profile.go for the attribution rule).
var layers = []string{
	"cache", "cache.prefetch", "cpu", "mem", "perf", "machine", "sim", "simos",
	"core", "workload", "kvstore", "apps", "bench", "obs", "runner",
	"experiments", "other", "quartzperf", "runtime.gc", "runtime.sched",
	"runtime.other",
}

// perLayer are the metrics a traced run reports. Every workload reports
// every one; a layer or count a workload does not exercise reads 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".cpu_s", "s"})
	}
	return append(defs, []metricDef{
		{"profile.cpu_s", "s"},
		{"span.warmup_s", "s"},
		{"span.build_s", "s"},
		{"span.preload_s", "s"},
		{"span.measure_s", "s"},
		{"span.collect_s", "s"},
		{"ref.ms", "ms"},
		{"cache.l1.accesses", "count"},
		{"cache.l1.miss_ratio", "ratio"},
		{"cache.l2.miss_ratio", "ratio"},
		{"cache.l3.miss_ratio", "ratio"},
		{"cache.l3.dirty_evictions", "count"},
		{"mem.reads", "count"},
		{"mem.writes", "count"},
		{"mem.writebacks", "count"},
		{"mem.prefetches", "count"},
		{"mem.queue_ns_per_req", "ns"},
		{"sim.dispatches", "count"},
		{"sim.spawned", "count"},
		{"core.epochs", "count"},
		{"core.sync_epochs", "count"},
		{"core.injected_ms", "ms"},
		{"core.write_delay_ms", "ms"},
		{"core.store_misses", "count"},
		{"workload.ops", "count"},
		{"obs.ledger_records", "count"},
		{"runner.jobs", "count"},
		{"cache.ns_per_access", "ns"},
		{"sim.ns_per_dispatch", "ns"},
		{"core.us_per_epoch", "us"},
		{"workload.ns_per_op", "ns"},
		{"host_ns_per_access", "ns"},
		{"emu_err_pct", "%"},
		{"runtime.alloc_mb", "MB"},
		{"runtime.gc_cycles", "count"},
		{"trace.overhead_pct", "%"},
	}...)
}()

var unitOf = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

// metric is one reported value, in the shape the result line prints.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

// set records a defined metric; an undefined name is a bug.
func (m metrics) set(name string, v float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic(fmt.Sprintf("quartzperf: undefined metric %q", name))
	}
	m[name] = metric{Value: v, Unit: unit}
}

// pick returns the subset of m named by defs.
func (m metrics) pick(defs []metricDef) metrics {
	out := metrics{}
	for _, d := range defs {
		if v, ok := m[d.name]; ok {
			out[d.name] = v
		}
	}
	return out
}

// median of xs (0 for none); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
