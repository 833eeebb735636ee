package cache

import (
	"testing"

	"github.com/quartz-emu/quartz/internal/mem"
	"github.com/quartz-emu/quartz/internal/sim"
)

// TestCacheOpsNoAllocs gates the package's no-allocation contract for every
// steady-state cache entry point. A never-filled level is probed first: it
// must answer as an empty level without building its arrays. Then each op
// runs against full sets, so inserts evict and flushes leave holes that the
// next insert refills.
func TestCacheOpsNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	cfg := Config{Name: "alloc", SizeBytes: 32 << 10, Ways: 8, LookupLat: sim.Nanosecond}
	lines := uintptr(cfg.SizeBytes / mem.LineSize)

	fresh := mustCache(t, cfg)
	var lookups int64
	for _, op := range []struct {
		name string
		f    func()
	}{
		{"Lookup", func() {
			lookups++
			if hit, _ := fresh.Lookup(uintptr(lookups)*64, 0, lookups%2 == 0); hit {
				t.Fatal("never-filled Lookup hit")
			}
		}},
		{"Contains", func() {
			if fresh.Contains(64) {
				t.Fatal("never-filled Contains reported present")
			}
		}},
		{"TouchLast", func() {
			if _, ok := fresh.TouchLast(64, 0, true); ok {
				t.Fatal("never-filled TouchLast hit")
			}
		}},
		{"Flush", func() {
			if present, _ := fresh.Flush(64); present {
				t.Fatal("never-filled Flush reported present")
			}
		}},
		{"Warm", func() { fresh.Warm(64) }},
	} {
		if allocs := testing.AllocsPerRun(500, op.f); allocs != 0 {
			t.Errorf("never-filled %s: %v allocs/op, want 0", op.name, allocs)
		}
	}
	if got, want := fresh.Stats(), (Stats{Misses: lookups}); got != want {
		t.Errorf("never-filled stats = %+v, want %+v", got, want)
	}
	if fresh.sigs != nil {
		t.Error("probes of a never-filled level built its line arrays")
	}

	c := mustCache(t, cfg)
	for a := uintptr(0); a < lines; a++ { // fill every way of every set
		c.Insert(a*64, false, 0)
	}
	next := lines // first line address not yet resident
	var i uintptr
	for _, op := range []struct {
		name string
		f    func()
	}{
		{"Lookup", func() { i++; c.Lookup((next-1-i%lines)*64, 0, i%2 == 0) }},
		{"TouchLast", func() { c.TouchLast((next-1)*64, 0, true) }},
		{"Contains", func() { i++; c.Contains(i * 64) }},
		{"Warm", func() { i++; c.Warm(i * 64) }},
		{"Insert", func() { c.Insert(next*64, true, 0); next++ }},
		{"InsertAbsent", func() { c.InsertAbsent(next*64, true, 0); next++ }},
		{"Flush", func() { c.Flush((next - 1) * 64); c.InsertAbsent((next-1)*64, false, 0) }},
	} {
		if allocs := testing.AllocsPerRun(500, op.f); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", op.name, allocs)
		}
	}
}
