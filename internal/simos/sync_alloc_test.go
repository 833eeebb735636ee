package simos

import "testing"

// TestSyncOpsNoAllocs gates the steady-state cost of the operations every
// simulated workload issues: uncontended lock/unlock on both lock kinds and
// single memory accesses must not allocate. Each op runs inside a simulated
// thread, the only context in which they can be issued.
func TestSyncOpsNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	p := newProc(t, DefaultOptions())
	m := p.NewMutex("m")
	rw := p.NewRWMutex("rw")
	base, err := p.Malloc(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	err = p.Run(func(th *Thread) {
		var i uintptr
		addr := func() uintptr { i = (i + 1) % 512; return base + i*64 }
		for _, op := range []struct {
			name string
			f    func()
		}{
			{"Mutex", func() { m.Lock(th); m.Unlock(th) }},
			{"RWMutexShared", func() { rw.RLock(th); th.Load(addr()); rw.Unlock(th) }},
			{"RWMutexExclusive", func() { rw.Lock(th); th.Store(addr()); rw.Unlock(th) }},
			{"Load", func() { th.Load(addr()) }},
			{"Store", func() { th.Store(addr()) }},
			{"Flush", func() { th.Flush(addr()) }},
		} {
			if allocs := testing.AllocsPerRun(500, op.f); allocs != 0 {
				t.Errorf("%s: %v allocs/op, want 0", op.name, allocs)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
