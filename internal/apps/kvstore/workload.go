package kvstore

import (
	"fmt"

	"github.com/quartz-emu/quartz/internal/mem"
	"github.com/quartz-emu/quartz/internal/obs/vtprof"
	"github.com/quartz-emu/quartz/internal/sim"
	"github.com/quartz-emu/quartz/internal/simos"
	"github.com/quartz-emu/quartz/internal/workload"
)

// Coarse vtprof phases: the preload (setup, off the measured window) and the
// measured op loop.
var (
	phasePreload = vtprof.Intern("kv-preload")
	phaseOps     = vtprof.Intern("kv-ops")
)

// getFraction is the share of gets in the §4.7 op mix: the usual 50/50.
const getFraction = 0.5

// WorkloadConfig drives the §4.7 put/get experiment.
type WorkloadConfig struct {
	// Preload is the number of keys loaded before measurement.
	Preload int
	// Threads is the number of client threads (the paper runs 1,2,4,8).
	Threads int
	// OpsPerThread is the measured operation count per thread.
	OpsPerThread int
	// ValueBytes, when positive, attaches a payload of that size to every
	// key in a separate arena: gets read it, puts write it. This is what
	// makes the workload memory-bound the way a production store's values
	// are (tree nodes alone can be cache-resident).
	ValueBytes int
	// ValueAlloc places the payload arena; required when ValueBytes > 0.
	ValueAlloc Alloc
	// Seed drives the operation streams.
	Seed uint64
}

// Validate reports configuration errors.
func (c WorkloadConfig) Validate() error {
	if c.Preload < 0 || c.Threads <= 0 || c.OpsPerThread <= 0 {
		return fmt.Errorf("kvstore: bad workload %+v", c)
	}
	if c.ValueBytes > 0 && c.ValueAlloc == nil {
		return fmt.Errorf("kvstore: ValueBytes set without ValueAlloc")
	}
	return nil
}

// WorkloadResult reports measured throughput in simulated time.
type WorkloadResult struct {
	CT       sim.Time
	Puts     int64
	Gets     int64
	PutsPerS float64
	GetsPerS float64
}

// payload is the per-key value arena both drivers charge: one slot of
// valueBytes per possible key, in its own allocation, so ops are
// memory-bound the way a production store's values are. The zero value
// charges nothing.
type payload struct {
	arena      uintptr
	valueBytes int
}

// newPayload allocates the arena for keys in [0, keySpace) from alloc when
// valueBytes > 0.
func newPayload(keySpace uint64, valueBytes int, alloc Alloc) (payload, error) {
	if valueBytes <= 0 {
		return payload{}, nil
	}
	if alloc == nil {
		return payload{}, fmt.Errorf("kvstore: value bytes set without an allocator")
	}
	arena, err := alloc(uintptr(keySpace) * uintptr(valueBytes))
	if err != nil {
		return payload{}, fmt.Errorf("kvstore: payload arena: %w", err)
	}
	return payload{arena: arena, valueBytes: valueBytes}, nil
}

// touch charges the payload access for key: up to two cache lines at the
// head of the value slot, read or written.
func (p payload) touch(t *simos.Thread, key uint64, write bool) {
	if p.arena == 0 {
		return
	}
	addr := p.arena + uintptr(key)*uintptr(p.valueBytes)
	lines := min((p.valueBytes+mem.LineSize-1)/mem.LineSize, 2) // ops touch the head of large values
	for l := 0; l < lines; l++ {
		if write {
			t.Store(addr + uintptr(l*mem.LineSize))
		} else {
			t.Load(addr + uintptr(l*mem.LineSize))
		}
	}
}

// RunWorkload preloads the store and drives the put/get mix from Threads
// client threads spawned off main. Each worker settles its trailing epoch
// (simos.Thread.SettledNow) before it exits, so every injected delay lands
// inside the measured window.
func RunWorkload(s *Store, main *simos.Thread, cfg WorkloadConfig) (WorkloadResult, error) {
	if err := cfg.Validate(); err != nil {
		return WorkloadResult{}, err
	}
	keySpace := uint64(4*cfg.Preload + 16) // generated keys fall in [0, keySpace)
	values, err := newPayload(keySpace, cfg.ValueBytes, cfg.ValueAlloc)
	if err != nil {
		return WorkloadResult{}, err
	}

	// Key and op-pick streams come from internal/workload, which preserves
	// this figure's historical generator bit-for-bit (golden-checked).
	dist := workload.Uniform{Keys: keySpace}
	pre := workload.NewLCG(workload.PreloadState(cfg.Seed))
	main.PushPhase(phasePreload)
	for i := 0; i < cfg.Preload; i++ {
		key := dist.Key(&pre)
		if err := s.Put(main, key, uint64(i)); err != nil {
			main.PopPhase()
			return WorkloadResult{}, fmt.Errorf("kvstore: preload: %w", err)
		}
		values.touch(main, key, true)
	}
	main.PopPhase()

	// Start rendezvous: every worker checks in after it is created and
	// (under an emulator) registered; only then does main open the measured
	// window and release them — exactly how a real benchmark separates
	// setup costs like thread registration from measurement.
	startMu := main.Process().NewMutex("kv-start-mu")
	arrivedCv := main.Process().NewCond("kv-arrived-cv")
	goCv := main.Process().NewCond("kv-go-cv")
	arrived := 0
	started := false

	var res WorkloadResult
	workers := make([]*simos.Thread, 0, cfg.Threads)
	putCounts := make([]int64, cfg.Threads)
	getCounts := make([]int64, cfg.Threads)
	var firstErr error
	for w := 0; w < cfg.Threads; w++ {
		th, err := main.CreateThread(fmt.Sprintf("kv-client-%d", w), func(t *simos.Thread) {
			startMu.Lock(t)
			arrived++
			arrivedCv.Signal(t)
			for !started {
				goCv.Wait(t, startMu)
			}
			startMu.Unlock(t)
			r := workload.NewLCG(workload.ClientState(cfg.Seed, w))
			t.PushPhase(phaseOps)
			defer t.PopPhase()
			for i := 0; i < cfg.OpsPerThread; i++ {
				key := dist.Key(&r)
				if workload.GetDraw(&r, getFraction) {
					if _, ok := s.Get(t, key); ok {
						values.touch(t, key, false)
					}
					getCounts[w]++
				} else {
					if err := s.Put(t, key, uint64(i)); err != nil && firstErr == nil {
						firstErr = err
						return
					}
					values.touch(t, key, true)
					putCounts[w]++
				}
			}
			t.SettledNow()
		})
		if err != nil {
			return WorkloadResult{}, fmt.Errorf("kvstore: spawning client %d: %w", w, err)
		}
		workers = append(workers, th)
	}
	// Wait for all workers to check in, settle main's pending epoch delay
	// (from the preload), then open the window and release the workers.
	startMu.Lock(main)
	for arrived < cfg.Threads {
		arrivedCv.Wait(main, startMu)
	}
	start := main.SettledNow()
	started = true
	goCv.Broadcast(main)
	startMu.Unlock(main)
	var end sim.Time
	for _, th := range workers {
		main.Join(th)
		if th.Now() > end {
			end = th.Now()
		}
	}
	if firstErr != nil {
		return WorkloadResult{}, firstErr
	}
	res.CT = end - start
	for w := 0; w < cfg.Threads; w++ {
		res.Puts += putCounts[w]
		res.Gets += getCounts[w]
	}
	secs := res.CT.Seconds()
	if secs > 0 {
		res.PutsPerS = float64(res.Puts) / secs
		res.GetsPerS = float64(res.Gets) / secs
	}
	return res, nil
}
