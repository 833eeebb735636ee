package experiments

import (
	"fmt"
	"strconv"

	"github.com/quartz-emu/quartz/internal/apps/kvstore"
	"github.com/quartz-emu/quartz/internal/bench"
	"github.com/quartz-emu/quartz/internal/machine"
	"github.com/quartz-emu/quartz/internal/sim"
	"github.com/quartz-emu/quartz/internal/workload"
)

// Traffic experiments: the ROADMAP's serving-system characterization. They
// are extensions (no paper counterpart): the paper validates batch figures,
// while these sweep YCSB-style serving traffic — client count x op mix x
// emulated NVM latency — against the KV store and report throughput,
// latency quantiles, and the saturation knee, the way the Empirical Guide
// characterizes Optane.

// trafficValueBytes matches the validation workload's payload size, keeping
// serving traffic memory-bound against the scaled L3 (see appMachine). For
// the NVM-latency dimension to bite, the touched working set — key space x
// two cache lines per value — must exceed kvL3Bytes, so meaningful scales
// keep TrafficPreload at ~32k keys or more.
const trafficValueBytes = 1024

// trafficSeed derives a scenario's base seed from its sweep coordinates, so
// every sweep point is decorrelated but fully reproducible.
func trafficSeed(mixIdx, latIdx, clients int) uint64 {
	return uint64(7_919 + mixIdx*1_000_003 + latIdx*10_007 + clients)
}

// trafficRun executes one traffic scenario in a fresh emulated environment:
// a zipfian-keyed, preloaded KV store served by a bounded pool under the
// given mix and client count. Epoch tuning matches kvRun (raised minimum
// epoch per §3.2 so sub-microsecond critical sections amortize). The
// emulator and the scenario both report to s.Observer.
func trafficRun(s Scale, id, name, mixName string, latNS float64, clients int, seed uint64) (workload.ScenarioResult, error) {
	mix, ok := workload.MixByName(mixName)
	if !ok {
		return workload.ScenarioResult{}, fmt.Errorf("experiments: unknown traffic mix %q (known: %v)",
			mixName, workload.PresetNames())
	}
	q := quartzConfig(latNS)
	if q.MinEpoch < 50*sim.Microsecond {
		q.MinEpoch = 50 * sim.Microsecond
	}
	env, err := s.env(id, name, bench.EnvConfig{
		Preset: machine.XeonE5_2450, Machine: appMachine(machine.XeonE5_2450, kvL3Bytes),
		Mode: bench.Emulated, Quartz: q,
		Lookahead: 2 * sim.Microsecond,
	})
	if err != nil {
		return workload.ScenarioResult{}, err
	}
	alloc := func(size uintptr) (uintptr, error) {
		return env.Proc.MallocOnNode(size, env.AllocNode())
	}
	store, err := kvstore.New(env.Proc, kvstore.Config{Partitions: 16, Alloc: alloc})
	if err != nil {
		return workload.ScenarioResult{}, err
	}
	keySpace := uint64(s.TrafficPreload)
	target, err := kvstore.NewTrafficTarget(store, keySpace, trafficValueBytes, alloc)
	if err != nil {
		return workload.ScenarioResult{}, err
	}
	keys, err := workload.NewZipfian(keySpace, workload.DefaultTheta, true)
	if err != nil {
		return workload.ScenarioResult{}, err
	}
	var res workload.ScenarioResult
	err = env.Run(func(e *bench.Env, th *simosThread) {
		if perr := target.Preload(th, keySpace); perr != nil {
			th.Failf("%v", perr)
		}
		var rerr error
		res, rerr = workload.RunScenario(th, target, workload.ScenarioConfig{
			Name:        fmt.Sprintf("%s/lat=%.0fns/clients=%d", mixName, latNS, clients),
			Clients:     clients,
			PoolThreads: s.TrafficPool,
			WarmupOps:   s.TrafficWarmup,
			MeasureOps:  s.TrafficOps,
			Keys:        keys,
			Mix:         mix,
			Seed:        seed,
			CloseEpoch:  e.CloseEpoch,
			Obs:         s.Observer,
		})
		if rerr != nil {
			th.Failf("%v", rerr)
		}
	})
	return res, err
}

// trafficMetrics flattens a scenario result into job metrics.
func trafficMetrics(res workload.ScenarioResult) Metrics {
	p50, p95, p99 := res.Quantiles()
	return Metrics{
		"ops_per_sec": res.OpsPerSec,
		"p50_ns":      p50,
		"p95_ns":      p95,
		"p99_ns":      p99,
		"reads":       float64(res.Counts[workload.OpRead]),
		"updates":     float64(res.Counts[workload.OpUpdate]),
		"scans":       float64(res.Counts[workload.OpScan]),
		"ct_ms":       res.CT.Milliseconds(),
	}
}

// trafficSweepJobs decomposes traffic-sweep into one job per
// (mix, NVM latency, client count) cell. The assembler rebuilds each
// (mix, latency) series positionally and runs knee/SLO-breach detection over
// its client sweep, so the table is byte-identical for any worker count.
func trafficSweepJobs(s Scale) JobSet {
	js := JobSet{ID: "traffic-sweep"}
	for mi, mixName := range s.TrafficMixes {
		for li, latNS := range s.TrafficLatsNS {
			for _, clients := range s.TrafficClients {
				seed := trafficSeed(mi, li, clients)
				name := fmt.Sprintf("%s/lat=%.0fns/clients=%d", mixName, latNS, clients)
				js.Jobs = append(js.Jobs, Job{
					Name: name,
					Params: map[string]string{
						"mix": mixName, "lat_ns": fmt.Sprintf("%.0f", latNS),
						"clients": strconv.Itoa(clients),
					},
					Run: func() (Metrics, error) {
						res, err := trafficRun(s, js.ID, name, mixName, latNS, clients, seed)
						if err != nil {
							return nil, fmt.Errorf("traffic-sweep %s lat=%.0f clients=%d: %w",
								mixName, latNS, clients, err)
						}
						return trafficMetrics(res), nil
					},
				})
			}
		}
	}
	js.Assemble = func(points []Metrics) (Table, error) {
		t := Table{
			ID:     "traffic-sweep",
			Title:  "Serving traffic: throughput/latency vs client count, op mix, NVM latency (extension)",
			Header: []string{"Mix", "NVM lat", "Clients", "ops/s", "p50 ns", "p95 ns", "p99 ns", "Knee"},
		}
		i := 0
		for _, mixName := range s.TrafficMixes {
			for _, latNS := range s.TrafficLatsNS {
				series := make([]workload.SLOPoint, 0, len(s.TrafficClients))
				for _, clients := range s.TrafficClients {
					p := points[i]
					i++
					series = append(series, workload.SLOPoint{
						Clients: clients, OpsPerSec: p["ops_per_sec"],
						P50: p["p50_ns"], P95: p["p95_ns"], P99: p["p99_ns"],
					})
				}
				rep := workload.NewSLOReport("traffic-sweep", mixName, series)
				for pi, sp := range series {
					mark := ""
					if pi == rep.KneeIdx {
						mark = "<-"
					}
					t.Rows = append(t.Rows, []string{
						mixName, fmt.Sprintf("%.0fns", latNS), strconv.Itoa(sp.Clients),
						fmt.Sprintf("%.0f", sp.OpsPerSec),
						fmt.Sprintf("%.0f", sp.P50), fmt.Sprintf("%.0f", sp.P95), fmt.Sprintf("%.0f", sp.P99),
						mark,
					})
				}
				t.Notes = append(t.Notes, fmt.Sprintf("lat=%.0fns %s", latNS, rep.Summary()))
			}
		}
		t.Notes = append(t.Notes,
			"extension (no paper counterpart): YCSB-style serving characterization of the emulated store",
			"latency is response time (completion - due): it includes pool queueing, which is what bends the knee")
		return t, nil
	}
	return js
}

// trafficSLOJobs decomposes traffic-slo: one job per mix at the sweep's
// largest client count and lowest NVM latency, reporting the per-op-kind
// breakdown (counts and p99) behind the aggregate SLO.
func trafficSLOJobs(s Scale) JobSet {
	js := JobSet{ID: "traffic-slo"}
	clients := s.TrafficClients[len(s.TrafficClients)-1]
	latNS := s.TrafficLatsNS[0]
	for mi, mixName := range s.TrafficMixes {
		seed := trafficSeed(mi, 0, clients)
		name := fmt.Sprintf("%s/clients=%d", mixName, clients)
		js.Jobs = append(js.Jobs, Job{
			Name: name,
			Params: map[string]string{
				"mix": mixName, "lat_ns": fmt.Sprintf("%.0f", latNS),
				"clients": strconv.Itoa(clients),
			},
			Run: func() (Metrics, error) {
				res, err := trafficRun(s, js.ID, name, mixName, latNS, clients, seed)
				if err != nil {
					return nil, fmt.Errorf("traffic-slo %s: %w", mixName, err)
				}
				m := trafficMetrics(res)
				for k := 0; k < workload.NumOpKinds; k++ {
					kind := workload.OpKind(k)
					snap := res.Lat.Kind[k].Snapshot()
					m[kind.String()+"_p99_ns"] = snap.P99
				}
				return m, nil
			},
		})
	}
	js.Assemble = func(points []Metrics) (Table, error) {
		t := Table{
			ID:    "traffic-slo",
			Title: fmt.Sprintf("Per-op-kind SLO breakdown at %d clients, %.0fns NVM (extension)", clients, latNS),
			Header: []string{"Mix", "ops/s", "reads", "updates", "scans",
				"read p99 ns", "update p99 ns", "scan p99 ns"},
		}
		for i, mixName := range s.TrafficMixes {
			p := points[i]
			t.Rows = append(t.Rows, []string{
				mixName,
				fmt.Sprintf("%.0f", p["ops_per_sec"]),
				fmt.Sprintf("%.0f", p["reads"]), fmt.Sprintf("%.0f", p["updates"]), fmt.Sprintf("%.0f", p["scans"]),
				fmt.Sprintf("%.0f", p["read_p99_ns"]), fmt.Sprintf("%.0f", p["update_p99_ns"]), fmt.Sprintf("%.0f", p["scan_p99_ns"]),
			})
		}
		t.Notes = append(t.Notes,
			"extension (no paper counterpart): scans aggregate many node visits, so their p99 dominates mixed blends")
		return t, nil
	}
	return js
}

// trafficMegaJobs decomposes traffic-mega: the scheduler-scale sweep, one
// job per client count up to 2^20 simulated clients (Full scale). Each point
// serves the read-mostly mix closed-loop at the lowest NVM latency with a
// small per-client quota, so total op count — and simulated work — grows
// linearly with the client axis while the engine's flat client state keeps
// host memory at ~24 bytes per client. The point of the experiment is the
// engine itself: a client count where a linear next-due scan would spend
// ~owned/2 comparisons per op is served at O(1) per pick by the FIFO ring
// (see internal/workload/sched.go).
func trafficMegaJobs(s Scale) JobSet {
	js := JobSet{ID: "traffic-mega"}
	const mixName = "read-mostly"
	latNS := s.TrafficLatsNS[0]
	// Rebase the per-client quotas: trafficRun sizes scenarios from
	// TrafficOps/TrafficWarmup, which the mega sweep overrides.
	ms := s
	ms.TrafficOps = s.TrafficMegaOps
	ms.TrafficWarmup = s.TrafficMegaWarmup
	for _, clients := range s.TrafficMegaClients {
		// Decorrelated from the traffic-sweep seeds by a mega-only offset.
		seed := trafficSeed(0, 0, clients) + 0x6d656761
		name := fmt.Sprintf("clients=%d", clients)
		js.Jobs = append(js.Jobs, Job{
			Name: name,
			Params: map[string]string{
				"mix": mixName, "lat_ns": fmt.Sprintf("%.0f", latNS),
				"clients": strconv.Itoa(clients),
			},
			Run: func() (Metrics, error) {
				res, err := trafficRun(ms, js.ID, name, mixName, latNS, clients, seed)
				if err != nil {
					return nil, fmt.Errorf("traffic-mega clients=%d: %w", clients, err)
				}
				return trafficMetrics(res), nil
			},
		})
	}
	js.Assemble = func(points []Metrics) (Table, error) {
		t := Table{
			ID:     "traffic-mega",
			Title:  fmt.Sprintf("Serving scale: %s at %.0fns NVM up to 2^20 clients (extension)", mixName, latNS),
			Header: []string{"Clients", "ops/s", "p50 ns", "p95 ns", "p99 ns", "CT ms"},
		}
		for i, clients := range s.TrafficMegaClients {
			p := points[i]
			t.Rows = append(t.Rows, []string{
				strconv.Itoa(clients),
				fmt.Sprintf("%.0f", p["ops_per_sec"]),
				fmt.Sprintf("%.0f", p["p50_ns"]), fmt.Sprintf("%.0f", p["p95_ns"]), fmt.Sprintf("%.0f", p["p99_ns"]),
				fmt.Sprintf("%.0f", p["ct_ms"]),
			})
		}
		t.Notes = append(t.Notes,
			"extension (no paper counterpart): stresses the engine's O(1)/O(log n) client scheduling, not the store",
			fmt.Sprintf("per-client quota: %d measured + %d warmup ops; pool=%d threads",
				ms.TrafficOps, ms.TrafficWarmup, s.TrafficPool),
			"closed-loop zero-think: response time grows ~linearly with clients/pool (every client queues once per round)")
		return t, nil
	}
	return js
}
