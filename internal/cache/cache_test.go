package cache

import (
	"strings"
	"testing"
	"testing/quick"

	"github.com/quartz-emu/quartz/internal/mem"
	"github.com/quartz-emu/quartz/internal/sim"
)

func smallConfig() Config {
	return Config{Name: "test", SizeBytes: 4096, Ways: 4, LookupLat: sim.Nanosecond}
}

func mustCache(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr bool
	}{
		{"valid", func(c *Config) {}, false},
		{"zero-size", func(c *Config) { c.SizeBytes = 0 }, true},
		{"zero-ways", func(c *Config) { c.Ways = 0 }, true},
		{"indivisible-ways", func(c *Config) { c.Ways = 3 }, true},
		{"widest-ways-ok", func(c *Config) { c.SizeBytes = 64 * 256; c.Ways = 256 }, false},
		{"too-many-ways", func(c *Config) { c.SizeBytes = 64 * 512; c.Ways = 512 }, true},
		{"non-pow2-sets-ok", func(c *Config) { c.SizeBytes = 4096 * 3 / 2; c.Ways = 4 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := smallConfig()
			tt.mutate(&cfg)
			err := cfg.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
			if err != nil && !strings.Contains(err.Error(), `"test"`) {
				t.Errorf("Validate() error = %v, want it to name cache \"test\"", err)
			}
		})
	}
}

func TestMissThenHit(t *testing.T) {
	c := mustCache(t, smallConfig())
	if hit, _ := c.Lookup(0x1000, 0, false); hit {
		t.Fatal("cold lookup hit")
	}
	c.Insert(0x1000, false, 0)
	if hit, wait := c.Lookup(0x1000, 0, false); !hit || wait != 0 {
		t.Fatalf("post-insert lookup = (%v, %v), want hit with no wait", hit, wait)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", s)
	}
}

func TestSameLineDifferentOffsetsHit(t *testing.T) {
	c := mustCache(t, smallConfig())
	c.Insert(0x1000, false, 0)
	for _, off := range []uintptr{0, 8, 63} {
		if hit, _ := c.Lookup(0x1000+off, 0, false); !hit {
			t.Errorf("offset %d within line missed", off)
		}
	}
}

func TestLRUEviction(t *testing.T) {
	cfg := smallConfig() // 16 sets, 4 ways
	c := mustCache(t, cfg)
	numSets := cfg.SizeBytes / mem.LineSize / cfg.Ways
	setStride := uintptr(numSets * mem.LineSize)

	// Fill one set with 4 lines mapping to the same set.
	for i := uintptr(0); i < 4; i++ {
		if _, ev := c.Insert(i*setStride, false, 0); ev {
			t.Fatalf("insert %d evicted prematurely", i)
		}
	}
	// Touch line 0 so line 1 becomes LRU.
	c.Lookup(0, 0, false)
	ev, evicted := c.Insert(4*setStride, false, 0)
	if !evicted {
		t.Fatal("fifth insert into full set did not evict")
	}
	if ev.Addr != setStride {
		t.Errorf("evicted %#x, want LRU line %#x", ev.Addr, setStride)
	}
}

func TestDirtyEvictionReported(t *testing.T) {
	cfg := smallConfig()
	c := mustCache(t, cfg)
	numSets := cfg.SizeBytes / mem.LineSize / cfg.Ways
	setStride := uintptr(numSets * mem.LineSize)
	c.Insert(0, true, 0) // dirty line
	for i := uintptr(1); i <= 4; i++ {
		ev, evicted := c.Insert(i*setStride, false, 0)
		if evicted && ev.Addr == 0 {
			if !ev.Dirty {
				t.Error("dirty line evicted without dirty flag")
			}
			return
		}
	}
	t.Fatal("dirty line was never evicted")
}

func TestStoreHitDirtiesLine(t *testing.T) {
	c := mustCache(t, smallConfig())
	c.Insert(0x40, false, 0)
	c.Lookup(0x40, 0, true) // store hit
	present, dirty := c.Flush(0x40)
	if !present || !dirty {
		t.Errorf("Flush = (%v, %v), want present dirty line", present, dirty)
	}
}

func TestFlushRemovesLine(t *testing.T) {
	c := mustCache(t, smallConfig())
	c.Insert(0x80, false, 0)
	if present, dirty := c.Flush(0x80); !present || dirty {
		t.Errorf("first flush = (%v,%v), want present clean", present, dirty)
	}
	if present, _ := c.Flush(0x80); present {
		t.Error("second flush still found the line")
	}
	if hit, _ := c.Lookup(0x80, 0, false); hit {
		t.Error("lookup after flush hit")
	}
}

func TestInFlightFillChargesResidualWait(t *testing.T) {
	c := mustCache(t, smallConfig())
	arrival := 150 * sim.Nanosecond
	c.Insert(0x100, false, arrival) // prefetch landing at 150ns
	if _, wait := c.Lookup(0x100, 100*sim.Nanosecond, false); wait != 50*sim.Nanosecond {
		t.Errorf("wait = %v, want 50ns residual", wait)
	}
	if _, wait := c.Lookup(0x100, 200*sim.Nanosecond, false); wait != 0 {
		t.Errorf("wait after arrival = %v, want 0", wait)
	}
}

func TestInsertExistingLineMergesDirty(t *testing.T) {
	c := mustCache(t, smallConfig())
	c.Insert(0x200, true, 0)
	if _, evicted := c.Insert(0x200, false, 0); evicted {
		t.Error("re-insert of resident line evicted something")
	}
	if _, dirty := c.Flush(0x200); !dirty {
		t.Error("re-insert cleared the dirty bit")
	}
}

func TestContainsDoesNotPerturbState(t *testing.T) {
	c := mustCache(t, smallConfig())
	c.Insert(0x40, false, 0)
	before := c.Stats()
	if !c.Contains(0x40) || c.Contains(0x9000) {
		t.Error("Contains gave wrong answers")
	}
	if c.Stats() != before {
		t.Error("Contains modified statistics")
	}
}

// TestCapacityProperty: inserting N distinct lines never leaves more than
// capacity lines resident, and a working set within capacity always hits
// after warm-up (fully associative behaviour is not required — only that a
// set-sized working set within one set survives).
func TestCapacityProperty(t *testing.T) {
	prop := func(seed uint32) bool {
		cfg := smallConfig()
		c, err := New(cfg)
		if err != nil {
			return false
		}
		// Working set: exactly the 4 ways of set 0.
		numSets := cfg.SizeBytes / mem.LineSize / cfg.Ways
		stride := uintptr(numSets * mem.LineSize)
		addrs := []uintptr{0, stride, 2 * stride, 3 * stride}
		for _, a := range addrs {
			c.Insert(a, false, 0)
		}
		// Any access order drawn from the working set must always hit.
		x := seed
		for i := 0; i < 256; i++ {
			x = x*1664525 + 1013904223
			a := addrs[x%4]
			if hit, _ := c.Lookup(a, 0, false); !hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPrefetcherDetectsAscendingStream(t *testing.T) {
	p := NewPrefetcher(4)
	var proposed []uintptr
	for l := uintptr(100); l < 110; l++ {
		proposed = append(proposed, p.Observe(l)...)
	}
	if len(proposed) == 0 {
		t.Fatal("ascending stream produced no prefetches")
	}
	seen := map[uintptr]bool{}
	for _, l := range proposed {
		if seen[l] {
			t.Errorf("line %d proposed twice", l)
		}
		seen[l] = true
		if l <= 101 {
			t.Errorf("prefetched line %d is behind the stream", l)
		}
	}
}

func TestPrefetcherDetectsDescendingStream(t *testing.T) {
	p := NewPrefetcher(4)
	var proposed []uintptr
	for l := uintptr(200); l > 190; l-- {
		proposed = append(proposed, p.Observe(l)...)
	}
	if len(proposed) == 0 {
		t.Fatal("descending stream produced no prefetches")
	}
	for _, l := range proposed {
		if l >= 200 {
			t.Errorf("descending prefetch %d not below stream head", l)
		}
	}
}

func TestPrefetcherIgnoresRandomAccesses(t *testing.T) {
	p := NewPrefetcher(4)
	x := uint32(12345)
	var proposed int
	for i := 0; i < 1000; i++ {
		x = x*1664525 + 1013904223
		proposed += len(p.Observe(uintptr(x) * 7919))
	}
	if proposed > 20 {
		t.Errorf("random access pattern triggered %d prefetches, want ~0", proposed)
	}
}

func TestPrefetcherDisabled(t *testing.T) {
	p := NewPrefetcher(0)
	for l := uintptr(0); l < 100; l++ {
		if got := p.Observe(l); len(got) != 0 {
			t.Fatal("disabled prefetcher proposed lines")
		}
	}
}

func TestPrefetcherTracksMultipleStreams(t *testing.T) {
	p := NewPrefetcher(2)
	var a, b int
	for i := uintptr(0); i < 20; i++ {
		a += len(p.Observe(1000 + i))
		b += len(p.Observe(5000 + i))
	}
	if a == 0 || b == 0 {
		t.Errorf("interleaved streams prefetched (%d, %d) lines; both must be detected", a, b)
	}
}
