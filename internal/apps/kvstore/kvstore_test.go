package kvstore

import (
	"testing"
	"testing/quick"

	"github.com/quartz-emu/quartz/internal/machine"
	"github.com/quartz-emu/quartz/internal/sim"
	"github.com/quartz-emu/quartz/internal/simos"
)

func newProc(t *testing.T) *simos.Process {
	t.Helper()
	m, err := machine.NewPreset(machine.XeonE5_2450)
	if err != nil {
		t.Fatal(err)
	}
	opts := simos.DefaultOptions()
	opts.Lookahead = 2 * sim.Microsecond
	p, err := simos.NewProcess(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newStore(t *testing.T, p *simos.Process, partitions int) *Store {
	t.Helper()
	s, err := New(p, Config{Partitions: partitions, Alloc: p.Malloc})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err == nil {
		t.Error("empty config accepted")
	}
	if err := (Config{Partitions: 4}).Validate(); err == nil {
		t.Error("nil alloc accepted")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	p := newProc(t)
	s := newStore(t, p, 4)
	err := p.Run(func(th *simos.Thread) {
		for i := uint64(0); i < 500; i++ {
			if err := s.Put(th, i*31, i); err != nil {
				th.Failf("put: %v", err)
			}
		}
		for i := uint64(0); i < 500; i++ {
			v, ok := s.Get(th, i*31)
			if !ok || v != i {
				th.Failf("get(%d) = (%d,%v), want (%d,true)", i*31, v, ok, i)
			}
		}
		if _, ok := s.Get(th, 999_999_999); ok {
			t.Error("absent key found")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 500 {
		t.Errorf("Len = %d, want 500", s.Len())
	}
}

func TestPutOverwrites(t *testing.T) {
	p := newProc(t)
	s := newStore(t, p, 2)
	err := p.Run(func(th *simos.Thread) {
		s.Put(th, 42, 1)
		s.Put(th, 42, 2)
		if v, ok := s.Get(th, 42); !ok || v != 2 {
			th.Failf("get after overwrite = (%d,%v), want (2,true)", v, ok)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Errorf("Len after overwrite = %d, want 1", s.Len())
	}
}

func TestSplitsPreserveOrder(t *testing.T) {
	// Insert enough sequential keys into one partition to force multi-level
	// splits, then scan to confirm sorted order and completeness.
	p := newProc(t)
	s := newStore(t, p, 1)
	const n = 2000
	err := p.Run(func(th *simos.Thread) {
		// Descending insert order stresses split paths.
		for i := n - 1; i >= 0; i-- {
			if err := s.Put(th, uint64(i), uint64(i)*3); err != nil {
				th.Failf("put: %v", err)
			}
		}
		var got []uint64
		s.Scan(th, 0, n+10, func(k, v uint64) bool {
			if v != k*3 {
				th.Failf("scan value for %d = %d, want %d", k, v, k*3)
			}
			got = append(got, k)
			return true
		})
		if len(got) != n {
			th.Failf("scan visited %d keys, want %d", len(got), n)
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				th.Failf("scan out of order at %d: %d after %d", i, got[i], got[i-1])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMatchesReferenceMapProperty(t *testing.T) {
	prop := func(ops []uint32) bool {
		if len(ops) > 300 {
			ops = ops[:300]
		}
		p := newProc(t)
		s := newStore(t, p, 3)
		ref := map[uint64]uint64{}
		ok := true
		err := p.Run(func(th *simos.Thread) {
			for i, op := range ops {
				key := uint64(op % 64)
				if op%3 == 0 {
					v, found := s.Get(th, key)
					refV, refFound := ref[key]
					if found != refFound || (found && v != refV) {
						ok = false
					}
				} else {
					val := uint64(i)
					s.Put(th, key, val)
					ref[key] = val
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentClientsKeepAllWrites(t *testing.T) {
	p := newProc(t)
	s := newStore(t, p, 8)
	const perThread = 300
	err := p.Run(func(th *simos.Thread) {
		var workers []*simos.Thread
		for w := 0; w < 4; w++ {
			base := uint64(w) << 32
			wt, err := th.CreateThread("client", func(t2 *simos.Thread) {
				for i := uint64(0); i < perThread; i++ {
					if err := s.Put(t2, base|i, i); err != nil {
						t2.Failf("put: %v", err)
					}
				}
			})
			if err != nil {
				th.Failf("create: %v", err)
			}
			workers = append(workers, wt)
		}
		for _, w := range workers {
			th.Join(w)
		}
		for w := 0; w < 4; w++ {
			base := uint64(w) << 32
			for i := uint64(0); i < perThread; i++ {
				if v, ok := s.Get(th, base|i); !ok || v != i {
					th.Failf("lost write %d/%d: (%d,%v)", w, i, v, ok)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 4*perThread {
		t.Errorf("Len = %d, want %d", s.Len(), 4*perThread)
	}
}

func TestWorkloadThroughputScalesWithThreads(t *testing.T) {
	run := func(threads int) WorkloadResult {
		p := newProc(t)
		s := newStore(t, p, 16)
		var res WorkloadResult
		err := p.Run(func(th *simos.Thread) {
			var rerr error
			res, rerr = RunWorkload(s, th, WorkloadConfig{
				Preload: 2000, Threads: threads, OpsPerThread: 1500, Seed: 7,
			})
			if rerr != nil {
				th.Failf("workload: %v", rerr)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one := run(1)
	four := run(4)
	opsOne := one.PutsPerS + one.GetsPerS
	opsFour := four.PutsPerS + four.GetsPerS
	t.Logf("1 thread: %.0f ops/s; 4 threads: %.0f ops/s", opsOne, opsFour)
	if opsFour < opsOne*2 {
		t.Errorf("4-thread throughput %.0f not ≥2x single-thread %.0f", opsFour, opsOne)
	}
	if one.Puts+one.Gets != 1500 {
		t.Errorf("op count = %d, want 1500", one.Puts+one.Gets)
	}
}

func TestWorkloadValidation(t *testing.T) {
	if err := (WorkloadConfig{}).Validate(); err == nil {
		t.Error("empty workload config accepted")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() sim.Time {
		p := newProc(t)
		s := newStore(t, p, 8)
		err := p.Run(func(th *simos.Thread) {
			if _, err := RunWorkload(s, th, WorkloadConfig{
				Preload: 500, Threads: 2, OpsPerThread: 500, Seed: 3,
			}); err != nil {
				th.Failf("workload: %v", err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return p.EndTime()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("workload nondeterministic: %v vs %v", a, b)
	}
}

func TestDelete(t *testing.T) {
	p := newProc(t)
	s := newStore(t, p, 2)
	err := p.Run(func(th *simos.Thread) {
		for i := uint64(0); i < 300; i++ {
			s.Put(th, i, i*2)
		}
		// Delete the odd keys.
		for i := uint64(1); i < 300; i += 2 {
			if !s.Delete(th, i) {
				th.Failf("delete(%d) reported absent", i)
			}
		}
		if s.Delete(th, 999) {
			th.Failf("delete of absent key reported present")
		}
		for i := uint64(0); i < 300; i++ {
			v, ok := s.Get(th, i)
			if i%2 == 1 && ok {
				th.Failf("deleted key %d still present", i)
			}
			if i%2 == 0 && (!ok || v != i*2) {
				th.Failf("surviving key %d = (%d,%v)", i, v, ok)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 150 {
		t.Errorf("Len after deletes = %d, want 150", s.Len())
	}
}

func TestDeleteThenReinsert(t *testing.T) {
	p := newProc(t)
	s := newStore(t, p, 1)
	err := p.Run(func(th *simos.Thread) {
		for round := 0; round < 3; round++ {
			for i := uint64(0); i < 200; i++ {
				s.Put(th, i, uint64(round))
			}
			for i := uint64(0); i < 200; i++ {
				s.Delete(th, i)
			}
		}
		if s.Len() != 0 {
			th.Failf("Len = %d after full delete", s.Len())
		}
		s.Put(th, 42, 7)
		if v, ok := s.Get(th, 42); !ok || v != 7 {
			th.Failf("reinsert failed: (%d,%v)", v, ok)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
