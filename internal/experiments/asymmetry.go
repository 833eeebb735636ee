package experiments

import (
	"fmt"
	"strconv"

	"github.com/quartz-emu/quartz/internal/bench"
	"github.com/quartz-emu/quartz/internal/core"
	"github.com/quartz-emu/quartz/internal/machine"
	"github.com/quartz-emu/quartz/internal/sim"
	"github.com/quartz-emu/quartz/internal/simos"
	"github.com/quartz-emu/quartz/internal/stats"
)

// asymProfileList resolves the scale's profile selection against the
// machine.NVMProfile registry, applying the -nvm-write override.
func asymProfileList(s Scale) ([]machine.NVMProfile, error) {
	names := s.AsymProfiles
	if len(names) == 0 {
		names = machine.NVMProfileNames()
	}
	profiles := make([]machine.NVMProfile, 0, len(names))
	for _, name := range names {
		p, err := machine.NVMProfileByName(name)
		if err != nil {
			return nil, err
		}
		if s.AsymWriteLatNS > 0 {
			p.WriteLatency = sim.FromNanos(s.AsymWriteLatNS)
		}
		profiles = append(profiles, p)
	}
	return profiles, nil
}

// errorJobSet surfaces a decomposition-time error (an unknown profile name)
// through the normal job machinery so every driver reports it identically.
func errorJobSet(id string, err error) JobSet {
	return JobSet{
		ID:   id,
		Jobs: []Job{{Name: "decompose", Run: func() (Metrics, error) { return nil, err }}},
		Assemble: func([]Metrics) (Table, error) {
			return Table{}, err
		},
	}
}

// asymQuartz is the emulator configuration of the asymmetric latency sweeps:
// the profile's read latency drives the stall model and its write latency the
// store-side model. Bandwidth caps are deliberately left off — fig12-asym is
// a latency validation, and keeping it latency-bound isolates the two knobs.
func asymQuartz(p machine.NVMProfile) core.Config {
	cfg := quartzConfig(p.ReadLatency.Nanoseconds())
	cfg.NVMWriteLatency = p.WriteLatency
	return cfg
}

// writeFloorNS is the smallest emulatable store latency: the emulator delays
// stores, it cannot accelerate DRAM, so the effective write target is
// max(profile write latency, local DRAM latency).
func writeFloorNS(pr presetRow, p machine.NVMProfile) float64 {
	dram := machine.PresetConfig(pr.preset).LocalLat.Nanoseconds()
	if w := p.WriteLatency.Nanoseconds(); w > dram {
		return w
	}
	return dram
}

// runStoreLat builds and runs one streaming-store trial in a fresh emulated
// environment and reports its settled completion time.
func runStoreLat(s Scale, id, name string, envCfg bench.EnvConfig, slCfg bench.StoreLatConfig) (sim.Time, error) {
	env, err := s.env(id, name, envCfg)
	if err != nil {
		return 0, err
	}
	slCfg.Node = env.AllocNode()
	sl, err := bench.BuildStoreLat(env.Proc, slCfg)
	if err != nil {
		return 0, err
	}
	var ct sim.Time
	err = env.Run(func(e *bench.Env, th *simos.Thread) {
		start := th.Now()
		sl.Run(th)
		ct = th.SettledNow() - start
	})
	return ct, err
}

// fig12AsymJobs decomposes the asymmetric-latency validation into one job per
// (family, NVM profile). Each trial runs three simulations — the read
// latency via a single-chain MemLat chase under the full asymmetric
// configuration, and the store latency via a paired streaming-store kernel
// run with the store model off (baseline) and on — and the job reports the
// means. The emulated store latency is recovered from the pair as
// DRAM + (CT_asym - CT_base) / store_misses: stores are posted, so the whole
// write term arrives through the per-epoch injection the pair isolates.
func fig12AsymJobs(s Scale) JobSet {
	const id = "fig12-asym"
	profiles, perr := asymProfileList(s)
	if perr != nil {
		return errorJobSet(id, perr)
	}
	js := JobSet{ID: id}
	prs := presetRows()
	for _, pr := range prs {
		for _, prof := range profiles {
			name := fmt.Sprintf("%s/%s", pr.label, prof.Name)
			js.Jobs = append(js.Jobs, Job{
				Name: name,
				Params: map[string]string{
					"family": pr.label, "profile": prof.Name,
					"read_ns":  fmt.Sprintf("%.0f", prof.ReadLatency.Nanoseconds()),
					"write_ns": fmt.Sprintf("%.0f", prof.WriteLatency.Nanoseconds()),
				},
				Run: func() (Metrics, error) {
					reads := make([]sim.Time, s.Trials)
					writes := make([]float64, s.Trials)
					dram := machine.PresetConfig(pr.preset).LocalLat.Nanoseconds()
					for trial := range s.Trials {
						read, err := runMemLat(s, id, name, bench.EnvConfig{
							Preset: pr.preset, Mode: bench.Emulated,
							Quartz: asymQuartz(prof),
						}, bench.MemLatConfig{
							Lines: s.Lines / 4, Chains: 1, Iters: s.MemLatIters,
							Seed: int64(trial*17 + 3),
						}, (*simos.Thread).SettledNow)
						if err != nil {
							return nil, trialErr("fig12-asym read", trial, err)
						}
						q := asymQuartz(prof)
						q.NVMWriteLatency = 0 // store model off: the subtraction baseline
						base, err := runStoreLat(s, id, name, bench.EnvConfig{
							Preset: pr.preset, Mode: bench.Emulated, Quartz: q,
						}, bench.StoreLatConfig{Lines: s.AsymLines})
						if err != nil {
							return nil, trialErr("fig12-asym write base", trial, err)
						}
						asym, err := runStoreLat(s, id, name, bench.EnvConfig{
							Preset: pr.preset, Mode: bench.Emulated, Quartz: asymQuartz(prof),
						}, bench.StoreLatConfig{Lines: s.AsymLines})
						if err != nil {
							return nil, trialErr("fig12-asym write asym", trial, err)
						}
						reads[trial] = read / sim.Time(s.MemLatIters)
						writes[trial] = dram + (asym-base).Nanoseconds()/float64(s.AsymLines)
					}
					return Metrics{
						"read_ns":  stats.Summarize(nanos(reads)).Mean,
						"write_ns": stats.Summarize(writes).Mean,
					}, nil
				},
			})
		}
	}
	js.Assemble = func(points []Metrics) (Table, error) {
		t := Table{
			ID:    id,
			Title: "Asymmetric model: emulated read vs store latency per NVM profile",
			Header: []string{"Family", "Profile", "Read tgt ns", "Read ns", "Read err",
				"Write tgt ns", "Write ns", "Write err", "W/R"},
		}
		i := 0
		for _, pr := range prs {
			for _, prof := range profiles {
				m := points[i]
				i++
				wTgt := writeFloorNS(pr, prof)
				t.Rows = append(t.Rows, []string{
					pr.label, prof.Name,
					f1(prof.ReadLatency.Nanoseconds()), f1(m["read_ns"]),
					pct(stats.RelErr(m["read_ns"], prof.ReadLatency.Nanoseconds())),
					f1(wTgt), f1(m["write_ns"]),
					pct(stats.RelErr(m["write_ns"], wTgt)),
					f2(m["write_ns"] / m["read_ns"]),
				})
			}
		}
		t.Notes = append(t.Notes,
			"write target floors at local DRAM latency: the emulator delays stores, it cannot speed DRAM up (Optane's 94 ns ADR store target clamps to the floor)",
			"W/R < 1: writes faster than reads (Optane); W/R > 1: classic write-penalty asymmetry (PCM)")
		if s.AsymWriteLatNS > 0 {
			t.Notes = append(t.Notes,
				fmt.Sprintf("profile write latencies overridden to %.0f ns (-nvm-write)", s.AsymWriteLatNS))
		}
		return t, nil
	}
	return js
}

// fig11AsymPreset is the testbed the bandwidth-collapse sweep runs on; Ivy
// Bridge is the paper's most accurate testbed and the reference elsewhere.
var fig11AsymPreset = presetRow{machine.XeonE5_2660v2, "Ivy Bridge"}

// fig11AsymJobs decomposes the write-bandwidth-collapse sweep into one job
// per (profile, writer count): each spawns that many store+flush writer
// threads under the profile's full configuration — read/write bandwidth caps,
// access-granularity amplification, and the write-bandwidth-by-threads curve
// reprogramming the throttle as writers register — and reports the aggregate
// application-visible write throughput.
func fig11AsymJobs(s Scale) JobSet {
	const id = "fig11-asym"
	profiles, perr := asymProfileList(s)
	if perr != nil {
		return errorJobSet(id, perr)
	}
	js := JobSet{ID: id}
	pr := fig11AsymPreset
	for _, prof := range profiles {
		for _, writers := range s.AsymWriters {
			name := fmt.Sprintf("%s/writers=%d", prof.Name, writers)
			js.Jobs = append(js.Jobs, Job{
				Name: name,
				Params: map[string]string{
					"profile": prof.Name, "writers": strconv.Itoa(writers),
				},
				Run: func() (Metrics, error) {
					bps := make([]float64, s.Trials)
					for trial := range s.Trials {
						mc := machine.PresetConfig(pr.preset)
						prof.ApplyToMem(&mc)
						q := asymQuartz(prof)
						q.NVMBandwidth = prof.ReadBandwidth
						q.NVMWriteBandwidth = prof.WriteBandwidth
						q.WriteBandwidthByThreads = prof.EmulatorWriteCurve()
						env, err := s.env(id, name, bench.EnvConfig{
							Preset: pr.preset, Machine: &mc, Mode: bench.Emulated,
							Quartz: q, Lookahead: 2 * sim.Microsecond,
						})
						if err != nil {
							return nil, trialErr("fig11-asym", trial, err)
						}
						var res bench.StoreBWResult
						if err := env.Run(func(e *bench.Env, th *simosThread) {
							var rerr error
							res, rerr = bench.RunStoreBW(e, th, bench.StoreBWConfig{
								Writers: writers, Lines: s.AsymBWLines, Node: e.AllocNode(),
							})
							if rerr != nil {
								th.Failf("%v", rerr)
							}
						}); err != nil {
							return nil, trialErr("fig11-asym", trial, err)
						}
						bps[trial] = res.AggBytesPerSec()
					}
					return Metrics{"agg_bps": stats.Summarize(bps).Mean}, nil
				},
			})
		}
	}
	js.Assemble = func(points []Metrics) (Table, error) {
		t := Table{
			ID:     id,
			Title:  fmt.Sprintf("Asymmetric model: write bandwidth vs writer threads (%s)", pr.label),
			Header: []string{"Profile", "Writers", "Agg GB/s", "Per-writer GB/s", "x 1-writer"},
		}
		i := 0
		for _, prof := range profiles {
			var oneWriter float64
			for w, writers := range s.AsymWriters {
				m := points[i]
				i++
				agg := m["agg_bps"] / 1e9
				if w == 0 {
					oneWriter = agg
				}
				ratio := 0.0
				if oneWriter > 0 {
					ratio = agg / oneWriter
				}
				t.Rows = append(t.Rows, []string{
					prof.Name, strconv.Itoa(writers),
					f2(agg), f2(agg / float64(writers)), f2(ratio),
				})
			}
		}
		t.Notes = append(t.Notes,
			"application-visible GB/s: each flushed 64 B line occupies the device for the profile's access granularity (256 B on Optane), so device traffic is up to 4x higher",
			"optane-dcpmm should rise, then collapse as the writer count passes the curve's peak; flat-bandwidth profiles saturate and plateau")
		return t, nil
	}
	return js
}
