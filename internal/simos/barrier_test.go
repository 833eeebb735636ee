package simos

import (
	"testing"

	"github.com/quartz-emu/quartz/internal/sim"
)

func TestBarrierValidation(t *testing.T) {
	p := newProc(t, DefaultOptions())
	if _, err := p.NewBarrier("b", 0); err == nil {
		t.Error("zero-party barrier accepted")
	}
	b, err := p.NewBarrier("b", 3)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "b" || b.parties != 3 {
		t.Errorf("barrier metadata wrong: %q/%d", b.Name(), b.parties)
	}
}

func TestBarrierRendezvous(t *testing.T) {
	p := newProc(t, DefaultOptions())
	b, err := p.NewBarrier("b", 3)
	if err != nil {
		t.Fatal(err)
	}
	var after [3]sim.Time
	err = p.Run(func(th *Thread) {
		var workers []*Thread
		for i := 0; i < 3; i++ {
			i := i
			w, err := th.CreateThread("w", func(t2 *Thread) {
				t2.ComputeFor(sim.Time(i+1) * sim.Millisecond) // staggered arrivals
				b.Wait(t2)
				after[i] = t2.Now()
			})
			if err != nil {
				th.Failf("create: %v", err)
			}
			workers = append(workers, w)
		}
		for _, w := range workers {
			th.Join(w)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// All three leave the barrier no earlier than the slowest arrival (3ms).
	for i, ts := range after {
		if ts < 3*sim.Millisecond {
			t.Errorf("worker %d left barrier at %v, before the last arrival", i, ts)
		}
		if ts > 3*sim.Millisecond+100*sim.Microsecond {
			t.Errorf("worker %d left barrier at %v, far after the last arrival", i, ts)
		}
	}
}

func TestBarrierReusableAcrossGenerations(t *testing.T) {
	p := newProc(t, DefaultOptions())
	b, err := p.NewBarrier("b", 2)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 5
	var counts [2]int
	err = p.Run(func(th *Thread) {
		mk := func(slot int) *Thread {
			w, err := th.CreateThread("w", func(t2 *Thread) {
				for r := 0; r < rounds; r++ {
					t2.Compute(int64(1000 * (slot + 1)))
					b.Wait(t2)
					counts[slot]++
				}
			})
			if err != nil {
				th.Failf("create: %v", err)
			}
			return w
		}
		a, bb := mk(0), mk(1)
		th.Join(a)
		th.Join(bb)
	})
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != rounds || counts[1] != rounds {
		t.Errorf("rounds completed = %v, want %d each", counts, rounds)
	}
}
