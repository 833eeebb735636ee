package simos

import (
	"testing"
	"testing/quick"

	"github.com/quartz-emu/quartz/internal/machine"
	"github.com/quartz-emu/quartz/internal/sim"
)

// TestMutexExclusionProperty: under random per-thread work patterns, at most
// one thread is ever inside the critical section, and every entry/exit pair
// nests correctly in virtual time.
func TestMutexExclusionProperty(t *testing.T) {
	prop := func(seed uint32, threadsRaw uint8) bool {
		threads := int(threadsRaw)%4 + 2
		m, err := machine.NewPreset(machine.XeonE5_2450)
		if err != nil {
			return false
		}
		opts := DefaultOptions()
		opts.Lookahead = sim.Microsecond
		p, err := NewProcess(m, opts)
		if err != nil {
			return false
		}
		mu := p.NewMutex("m")
		inside := 0
		maxInside := 0
		type interval struct{ enter, exit sim.Time }
		var intervals []interval
		err = p.Run(func(th *Thread) {
			var workers []*Thread
			for i := 0; i < threads; i++ {
				x := uint64(seed) + uint64(i)*0x9e3779b9 + 1
				w, werr := th.CreateThread("w", func(t2 *Thread) {
					local := x
					for j := 0; j < 30; j++ {
						local = local*6364136223846793005 + 1442695040888963407
						t2.Compute(int64(local%5000) + 100)
						mu.Lock(t2)
						inside++
						if inside > maxInside {
							maxInside = inside
						}
						enter := t2.Now()
						t2.Compute(int64(local%2000) + 50)
						inside--
						intervals = append(intervals, interval{enter, t2.Now()})
						mu.Unlock(t2)
					}
				})
				if werr != nil {
					th.Failf("create: %v", werr)
				}
				workers = append(workers, w)
			}
			for _, w := range workers {
				th.Join(w)
			}
		})
		if err != nil || maxInside != 1 {
			return false
		}
		// Critical-section intervals must not overlap in virtual time.
		for i := 1; i < len(intervals); i++ {
			if intervals[i].enter < intervals[i-1].exit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestAllocatorNonOverlapProperty: distinct allocations never overlap and
// always live on the requested node.
func TestAllocatorNonOverlapProperty(t *testing.T) {
	prop := func(sizesRaw []uint16) bool {
		if len(sizesRaw) > 50 {
			sizesRaw = sizesRaw[:50]
		}
		m, err := machine.NewPreset(machine.XeonE5_2660v2)
		if err != nil {
			return false
		}
		p, err := NewProcess(m, DefaultOptions())
		if err != nil {
			return false
		}
		type span struct{ lo, hi uintptr }
		var spans []span
		for i, raw := range sizesRaw {
			size := uintptr(raw)%65536 + 1
			node := i % 2
			addr, err := p.MallocOnNode(size, node)
			if err != nil {
				return false
			}
			if p.NodeOf(addr) != node || p.NodeOf(addr+size-1) != node {
				return false
			}
			spans = append(spans, span{addr, addr + size})
		}
		for i := range spans {
			for j := i + 1; j < len(spans); j++ {
				a, b := spans[i], spans[j]
				if a.lo < b.hi && b.lo < a.hi {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestVirtualTimeMonotoneUnderSignals: a thread's clock never runs backwards
// even while handlers interleave with its ops.
func TestVirtualTimeMonotoneUnderSignals(t *testing.T) {
	m, err := machine.NewPreset(machine.XeonE5_2450)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProcess(m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var stamps []sim.Time
	p.SetHooks(Hooks{OnEpochSignal: func(th *Thread) {
		stamps = append(stamps, th.Now())
		th.Compute(500)
	}})
	err = p.Run(func(th *Thread) {
		w, werr := th.CreateThread("victim", func(t2 *Thread) {
			for i := 0; i < 200; i++ {
				t2.Compute(2000)
				stamps = append(stamps, t2.Now())
			}
		})
		if werr != nil {
			th.Failf("create: %v", werr)
		}
		for i := 0; i < 20; i++ {
			th.ComputeFor(5 * sim.Microsecond)
			th.Kill(w)
		}
		th.Join(w)
	})
	if err != nil {
		t.Fatal(err)
	}
	// stamps mixes victim + handler times, all on the victim thread: its
	// own subsequence must be monotone. (All stamps are from the victim.)
	for i := 1; i < len(stamps); i++ {
		if stamps[i] < stamps[i-1] {
			t.Fatalf("victim clock went backwards: %v after %v", stamps[i], stamps[i-1])
		}
	}
	if len(stamps) <= 200 {
		t.Error("no signal handlers appear to have run")
	}
}
