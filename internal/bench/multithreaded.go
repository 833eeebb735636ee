package bench

import (
	"fmt"

	"github.com/quartz-emu/quartz/internal/mem"
	"github.com/quartz-emu/quartz/internal/sim"
	"github.com/quartz-emu/quartz/internal/simos"
)

// MTConfig parameterizes the Multi-Threaded benchmark (§4.5): N threads each
// executing K critical sections protected by one shared lock, with
// pointer-chasing work inside (cs_dur) and outside (out_dur) the sections.
type MTConfig struct {
	// Threads is N.
	Threads int
	// Sections is K, the critical sections per thread.
	Sections int
	// CSDur is the number of chase iterations inside each critical
	// section.
	CSDur int
	// OutDur is the number of chase iterations between critical sections
	// (0 reproduces the paper's "cs only" extreme).
	OutDur int
	// Lines sizes each thread's private chain.
	Lines int
	// Node is where the chains are allocated.
	Node int
	// Seed drives the chain permutations.
	Seed int64
}

// Validate reports configuration errors.
func (c MTConfig) Validate() error {
	if c.Threads <= 0 || c.Sections <= 0 || c.CSDur < 0 || c.OutDur < 0 || c.Lines <= 1 {
		return fmt.Errorf("bench: bad MTConfig %+v", c)
	}
	return checkChainLen("MTConfig.Lines", c.Lines)
}

// MTResult is one run's measurement.
type MTResult struct {
	// CT is the wall completion time from workload start to the last
	// thread's finish.
	CT sim.Time
}

// RunMultiThreaded builds the per-thread chains, spawns the workers from the
// given main thread, and reports the completion time. It must be called from
// inside an Env.Run body so that thread creation runs the process's
// ThreadStarted hook, which registers each worker with an attached emulator.
//
// Main settles its epoch before the window opens, but the workers' trailing
// epochs stay open: a worker's delay after its last unlock is not in CT.
// Settling them would lengthen CT and move fig13's table and the
// lock-handoff benchmark digests, so it waits for the exit-time accounting
// of unclosed epochs.
func RunMultiThreaded(env *Env, main *simos.Thread, cfg MTConfig) (MTResult, error) {
	if err := cfg.Validate(); err != nil {
		return MTResult{}, err
	}
	type worker struct {
		order *visitOrder
		base  uintptr
	}
	workers := make([]worker, cfg.Threads)
	for i := range workers {
		base, err := env.Proc.MallocOnNode(uintptr(cfg.Lines)*mem.LineSize, cfg.Node)
		if err != nil {
			return MTResult{}, fmt.Errorf("bench: MT chain %d: %w", i, err)
		}
		workers[i] = worker{
			order: permutationCycle(cfg.Lines, cfg.Seed+int64(i)*104729),
			base:  base,
		}
	}
	lock := env.Proc.NewMutex("mt-lock")

	// Start rendezvous: the measured window opens after every worker has
	// checked in (created and registered with the emulator, if any),
	// keeping one-time registration costs out of the completion time.
	startMu := env.Proc.NewMutex("mt-start-mu")
	arrivedCv := env.Proc.NewCond("mt-arrived-cv")
	goCv := env.Proc.NewCond("mt-go-cv")
	arrived := 0
	started := false

	threads := make([]*simos.Thread, 0, cfg.Threads)
	for i := range workers {
		w := workers[i]
		th, err := main.CreateThread(fmt.Sprintf("mt-%d", i), func(t *simos.Thread) {
			startMu.Lock(t)
			arrived++
			arrivedCv.Signal(t)
			for !started {
				goCv.Wait(t, startMu)
			}
			startMu.Unlock(t)
			cur := w.order.cursor()
			ahead := cur.skip(warmAhead)
			chase := func(iters int) {
				for j := 0; j < iters; j++ {
					t.Warm(w.base + ahead.next()*mem.LineSize)
					t.Load(w.base + cur.next()*mem.LineSize)
				}
			}
			for k := 0; k < cfg.Sections; k++ {
				lock.Lock(t)
				chase(cfg.CSDur)
				lock.Unlock(t)
				chase(cfg.OutDur)
			}
		})
		if err != nil {
			return MTResult{}, fmt.Errorf("bench: spawning MT worker %d: %w", i, err)
		}
		threads = append(threads, th)
	}
	startMu.Lock(main)
	for arrived < cfg.Threads {
		arrivedCv.Wait(main, startMu)
	}
	start := main.SettledNow()
	started = true
	goCv.Broadcast(main)
	startMu.Unlock(main)
	var end sim.Time
	for _, th := range threads {
		main.Join(th)
		if th.Now() > end {
			end = th.Now()
		}
	}
	if after := main.Now(); after > end {
		end = after
	}
	return MTResult{CT: end - start}, nil
}
