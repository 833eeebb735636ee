package cache

import (
	"fmt"
	"testing"

	"github.com/quartz-emu/quartz/internal/sim"
)

func benchCache(b *testing.B) *Cache {
	b.Helper()
	c, err := New(Config{Name: "bench", SizeBytes: 32 << 10, Ways: 8, LookupLat: sim.Nanosecond})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkCacheLookupHit measures the repeat-hit walk — the single hottest
// loop in the simulator. Each set holds one line, so every hit is on way 0.
func BenchmarkCacheLookupHit(b *testing.B) {
	c := benchCache(b)
	for a := uintptr(0); a < 64; a++ {
		c.Insert(a*64, false, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(uintptr(i%64)*64, 0, false)
	}
}

// BenchmarkCacheLookupMiss measures the full-set scan on a guaranteed miss.
func BenchmarkCacheLookupMiss(b *testing.B) {
	c := benchCache(b)
	for a := uintptr(0); a < 512; a++ {
		c.Insert(a*64, false, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(uintptr(1<<30)+uintptr(i)*64, 0, false)
	}
}

// BenchmarkCacheContains measures the presence probe behind the core's
// prefetch filter, which asks L2 and L3 whether each proposed line is
// already there before it issues the fill. A 256-set level is filled with
// lines with pseudo-random tags, so the way signatures differ as
// they do in a large modeled L3. A hit probes the filled lines in turn, so
// the matching way is spread evenly over the set; a miss probes absent tags
// of the same sets. The arrays stay in host L2, so the rows price the set
// scan rather than host memory.
func BenchmarkCacheContains(b *testing.B) {
	const sets = 256
	for _, ways := range []int{16, 20} {
		c, err := New(Config{Name: "contains", SizeBytes: sets * ways * 64, Ways: ways, LookupLat: sim.Nanosecond})
		if err != nil {
			b.Fatal(err)
		}
		// Line k of the fill goes to set k%sets with a tag drawn below 1<<24;
		// the absent lines set bit 24.
		present := make([]uintptr, sets*ways)
		absent := make([]uintptr, sets*ways)
		x := uint64(0x9e3779b97f4a7c15)
		for k := range present {
			x = x*6364136223846793005 + 1442695040888963407
			line := uintptr(x>>40)&^(sets-1) | uintptr(k%sets)
			present[k] = line * 64
			absent[k] = (line | 1<<24) * 64
			c.Insert(present[k], false, 0)
		}
		for _, bc := range []struct {
			name  string
			addrs []uintptr
			want  bool
		}{{"hit", present, true}, {"miss", absent, false}} {
			b.Run(fmt.Sprintf("%dw-%s", ways, bc.name), func(b *testing.B) {
				k := 0
				for i := 0; i < b.N; i++ {
					if c.Contains(bc.addrs[k]) != bc.want {
						b.Fatal("Contains answered wrong")
					}
					if k++; k == len(bc.addrs) {
						k = 0
					}
				}
			})
		}
	}
}

// BenchmarkCacheTouchLast measures the last-line fast path.
func BenchmarkCacheTouchLast(b *testing.B) {
	c := benchCache(b)
	c.Insert(0x1000, false, 0)
	c.Lookup(0x1000, 0, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.TouchLast(0x1000, 0, false)
	}
}

// BenchmarkCacheInsertEvict measures steady-state insert with eviction (the
// streaming-workload fill path).
func BenchmarkCacheInsertEvict(b *testing.B) {
	c := benchCache(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(uintptr(i)*64, false, 0)
	}
}

// BenchmarkCacheFill measures the demand walk on caches too large to stay
// in host L1: after one pass fills every way, each op looks up a random line
// of a footprint twice the capacity and fills it on a miss, the way the CPU
// layer does (a known-absent insert after the level missed). Roughly half
// the ops miss and evict, and the metadata touched per op is spread over
// host memory the way a modeled L2 or L3 spreads it. The -ahead row also
// warms the set of the address 8 ops ahead, as the chase kernels do.
func BenchmarkCacheFill(b *testing.B) {
	for _, sz := range []struct {
		name        string
		bytes, ways int
		ahead       int
	}{
		{"256K-8w", 256 << 10, 8, 0},
		{"2M-16w", 2 << 20, 16, 0},
		{"20M-20w", 20 << 20, 20, 0},
		{"20M-20w-ahead", 20 << 20, 20, 8},
	} {
		b.Run(sz.name, func(b *testing.B) {
			c, err := New(Config{Name: sz.name, SizeBytes: sz.bytes, Ways: sz.ways, LookupLat: sim.Nanosecond})
			if err != nil {
				b.Fatal(err)
			}
			lines := uint64(sz.bytes / 64)
			for a := uint64(0); a < lines; a++ {
				c.Insert(uintptr(a)*64, false, 0)
			}
			next := func(x *uint64) uintptr {
				*x = *x*6364136223846793005 + 1442695040888963407
				return uintptr((*x>>33)%(2*lines)) * 64
			}
			x := uint64(0x9e3779b97f4a7c15)
			ahead := x
			for range sz.ahead {
				next(&ahead)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if sz.ahead > 0 {
					c.Warm(next(&ahead))
				}
				addr := next(&x)
				if hit, _ := c.Lookup(addr, 0, false); !hit {
					c.InsertAbsent(addr, false, 0)
				}
			}
		})
	}
}

// BenchmarkPrefetcherObserveRandom measures the stream-table scan under a
// pattern with no streams — the allocation path a pointer chase takes on
// every load.
func BenchmarkPrefetcherObserveRandom(b *testing.B) {
	p := NewPrefetcher(4)
	x := uint32(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = x*1664525 + 1013904223
		p.Observe(uintptr(x) * 7919)
	}
}
