package simos

import (
	"testing"

	"github.com/quartz-emu/quartz/internal/sim"
)

func TestRWMutexReadersShareWritersExclude(t *testing.T) {
	p := newProc(t, DefaultOptions())
	rw := p.NewRWMutex("rw")
	var concurrentReaders, maxConcurrent int
	var writerSawReaders bool
	err := p.Run(func(th *Thread) {
		var workers []*Thread
		for i := 0; i < 4; i++ {
			w, err := th.CreateThread("reader", func(t2 *Thread) {
				rw.RLock(t2)
				concurrentReaders++
				if concurrentReaders > maxConcurrent {
					maxConcurrent = concurrentReaders
				}
				t2.ComputeFor(2 * sim.Millisecond)
				// Re-synchronize with global virtual time before touching
				// the shared host-side counter: Compute advances the local
				// clock without yielding, so unsynchronized host code here
				// would observe the "future".
				t2.YieldStrict()
				concurrentReaders--
				rw.Unlock(t2)
			})
			if err != nil {
				th.Failf("create: %v", err)
			}
			workers = append(workers, w)
		}
		th.ComputeFor(500 * sim.Microsecond)
		wr, err := th.CreateThread("writer", func(t2 *Thread) {
			rw.Lock(t2)
			t2.YieldStrict()
			if concurrentReaders != 0 {
				writerSawReaders = true
			}
			t2.ComputeFor(sim.Millisecond)
			rw.Unlock(t2)
		})
		if err != nil {
			th.Failf("create: %v", err)
		}
		workers = append(workers, wr)
		for _, w := range workers {
			th.Join(w)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if maxConcurrent < 2 {
		t.Errorf("max concurrent readers = %d, want sharing", maxConcurrent)
	}
	if writerSawReaders {
		t.Error("writer held the lock while readers were inside")
	}
}

func TestRWMutexWriterPreference(t *testing.T) {
	// A waiting writer blocks new readers, so it cannot starve.
	p := newProc(t, DefaultOptions())
	rw := p.NewRWMutex("rw")
	var order []string
	err := p.Run(func(th *Thread) {
		rw.RLock(th) // main holds shared
		writer, err := th.CreateThread("writer", func(t2 *Thread) {
			rw.Lock(t2)
			order = append(order, "writer")
			rw.Unlock(t2)
		})
		if err != nil {
			th.Failf("create: %v", err)
		}
		th.ComputeFor(sim.Millisecond) // writer is now queued
		lateReader, err := th.CreateThread("late-reader", func(t2 *Thread) {
			rw.RLock(t2)
			order = append(order, "late-reader")
			rw.Unlock(t2)
		})
		if err != nil {
			th.Failf("create: %v", err)
		}
		th.ComputeFor(sim.Millisecond)
		rw.Unlock(th) // release shared: writer must go first
		th.Join(writer)
		th.Join(lateReader)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "writer" || order[1] != "late-reader" {
		t.Errorf("acquisition order = %v, want [writer late-reader]", order)
	}
}

func TestRWMutexUnlockByNonHolderFails(t *testing.T) {
	p := newProc(t, DefaultOptions())
	rw := p.NewRWMutex("rw")
	err := p.Run(func(th *Thread) {
		rw.Unlock(th)
	})
	if err == nil {
		t.Error("unlock by non-holder did not fail")
	}
}

// TestRWMutexInterposition checks that BeforeSync fires once per rwlock call
// on the calling thread, also when the call blocks: the writer's Lock waits
// for the reader's Unlock and still counts once.
func TestRWMutexInterposition(t *testing.T) {
	p := newProc(t, DefaultOptions())
	rw := p.NewRWMutex("rw")
	calls := map[string]int{}
	p.SetHooks(Hooks{BeforeSync: func(th *Thread) { calls[th.Name()]++ }})
	err := p.Run(func(th *Thread) {
		rw.RLock(th)
		w, err := th.CreateThread("writer", func(w *Thread) {
			rw.Lock(w) // blocks until main's Unlock
			rw.Unlock(w)
		})
		if err != nil {
			th.Failf("create: %v", err)
		}
		th.ComputeFor(sim.Millisecond)
		rw.Unlock(th)
		th.Join(w)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 2 || calls["main"] != 2 || calls["writer"] != 2 {
		t.Errorf("BeforeSync calls per thread = %v, want main:2 writer:2", calls)
	}
}
