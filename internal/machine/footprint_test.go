package machine

import (
	"runtime"
	"testing"

	"github.com/quartz-emu/quartz/internal/cache"
	"github.com/quartz-emu/quartz/internal/mem"
)

// presetNames gives each preset a short sub-test name.
var presetNames = []struct {
	name   string
	preset Preset
}{
	{"sandy-bridge", XeonE5_2450},
	{"ivy-bridge", XeonE5_2660v2},
	{"haswell", XeonE5_2650v3},
}

// totalAlloc reports the bytes allocated so far by the whole program.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// lineArrayBytes is what one cache level allocates at its first fill: per
// way a 1-byte signature, a 16-byte tag+arrival record, a 2-byte recency
// link and a dirty flag; per set a 4-byte list record.
func lineArrayBytes(cc cache.Config) uint64 {
	lines := uint64(cc.SizeBytes / mem.LineSize)
	return lines*(1+16+2+1) + lines/uint64(cc.Ways)*4
}

// TestMachineFootprint pins that a machine costs what its run touches:
// building a preset allocates no cache line state, and one load on core 0
// builds exactly socket 0's L3 plus core 0's L1 and L2 — no other core's
// private caches and not socket 1's L3.
func TestMachineFootprint(t *testing.T) {
	const buildBudget = 256 << 10 // bytes; the build measures ~25 KiB
	const slack = 256 << 10       // allocator rounding and the load's own bookkeeping
	for _, p := range presetNames {
		t.Run(p.name, func(t *testing.T) {
			before := totalAlloc()
			m, err := NewPreset(p.preset)
			if err != nil {
				t.Fatal(err)
			}
			built := totalAlloc() - before
			if built >= buildBudget {
				t.Errorf("NewPreset allocated %d bytes, want < %d", built, buildBudget)
			}

			cfg := m.Config()
			before = totalAlloc()
			m.Core(0).Load(0, m.NodeBase(0)+1<<20)
			loaded := totalAlloc() - before
			l3 := lineArrayBytes(cfg.L3)
			limit := l3 + lineArrayBytes(cfg.L1) + lineArrayBytes(cfg.L2) + slack
			if loaded < l3 || loaded > limit {
				t.Errorf("first load allocated %d bytes, want between one L3 (%d) and one L3 + L1 + L2 + slack (%d)", loaded, l3, limit)
			}
		})
	}
}

// BenchmarkMachineBuild prices assembling a preset machine, which is paid
// once per bench environment and so once per runner job.
func BenchmarkMachineBuild(b *testing.B) {
	for _, p := range presetNames {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewPreset(p.preset); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
