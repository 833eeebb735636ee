package machine

import (
	"fmt"

	"github.com/quartz-emu/quartz/internal/cache"
	"github.com/quartz-emu/quartz/internal/cpu"
	"github.com/quartz-emu/quartz/internal/mem"
	"github.com/quartz-emu/quartz/internal/perf"
	"github.com/quartz-emu/quartz/internal/sim"
)

// Preset identifies one of the paper's three dual-socket testbeds.
type Preset int

// Testbed presets (§4.1).
const (
	// XeonE5_2450 is the Sandy Bridge testbed: 2 sockets x 8 two-way
	// hyper-threaded cores at 2.1 GHz; local/remote DRAM 97/163 ns.
	XeonE5_2450 Preset = iota + 1
	// XeonE5_2660v2 is the Ivy Bridge testbed: 2 sockets x 10 cores at
	// 2.2 GHz; local/remote DRAM 87/176 ns.
	XeonE5_2660v2
	// XeonE5_2650v3 is the Haswell testbed: 2 sockets x 10 cores at
	// 2.3 GHz; local/remote DRAM 120/175 ns.
	XeonE5_2650v3
)

func (p Preset) String() string {
	switch p {
	case XeonE5_2450:
		return "Intel Xeon E5-2450 (Sandy Bridge)"
	case XeonE5_2660v2:
		return "Intel Xeon E5-2660 v2 (Ivy Bridge)"
	case XeonE5_2650v3:
		return "Intel Xeon E5-2650 v3 (Haswell)"
	default:
		return fmt.Sprintf("Preset(%d)", int(p))
	}
}

// Presets lists all testbed presets in paper order.
func Presets() []Preset { return []Preset{XeonE5_2450, XeonE5_2660v2, XeonE5_2650v3} }

// PresetByName resolves a testbed's CLI name: sandybridge, ivybridge or
// haswell. The error names the bad value.
func PresetByName(name string) (Preset, error) {
	switch name {
	case "sandybridge":
		return XeonE5_2450, nil
	case "ivybridge":
		return XeonE5_2660v2, nil
	case "haswell":
		return XeonE5_2650v3, nil
	}
	return 0, fmt.Errorf("unknown preset %q (sandybridge|ivybridge|haswell)", name)
}

// baseConfig holds the structure shared by all three testbeds; presets
// specialize frequency, cache sizes, channel counts and NUMA latencies.
func baseConfig() Config {
	return Config{
		Sockets: 2,
		Core: cpu.Config{
			MSHRs:         10,
			PrefetchDepth: 16,
		},
		L1: cache.Config{Name: "L1d", SizeBytes: 32 << 10, Ways: 8,
			LookupLat: sim.FromNanos(1.5)},
		L2: cache.Config{Name: "L2", SizeBytes: 256 << 10, Ways: 8,
			LookupLat: sim.FromNanos(4.0)},
		Mem: mem.Config{
			ThrottleFullScale: 2048,
		},
		DVFSLowFactor:  0.8,
		DVFSHalfPeriod: 200 * sim.Microsecond,
	}
}

// PresetConfig returns the full machine configuration for preset p.
func PresetConfig(p Preset) Config {
	cfg := baseConfig()
	switch p {
	case XeonE5_2450:
		cfg.Name = "Intel Xeon E5-2450"
		cfg.Family = perf.SandyBridge
		cfg.CoresPerSocket = 8
		cfg.Core.FreqHz = 2.1e9
		cfg.L3 = cache.Config{Name: "L3", SizeBytes: 20 << 20, Ways: 20,
			LookupLat: sim.FromNanos(11.0)}
		// E5-2400 series: 3 DDR3-1600 channels per socket.
		cfg.Mem.Channels = 3
		cfg.Mem.ChannelBandwidth = 12.8e9
		cfg.LocalLat = sim.FromNanos(97)
		cfg.RemoteLat = sim.FromNanos(163)
	case XeonE5_2660v2:
		cfg.Name = "Intel Xeon E5-2660 v2"
		cfg.Family = perf.IvyBridge
		cfg.CoresPerSocket = 10
		cfg.Core.FreqHz = 2.2e9
		cfg.L3 = cache.Config{Name: "L3", SizeBytes: 25 << 20, Ways: 20,
			LookupLat: sim.FromNanos(12.0)}
		cfg.Mem.Channels = 4
		cfg.Mem.ChannelBandwidth = 12.8e9
		cfg.LocalLat = sim.FromNanos(87)
		cfg.RemoteLat = sim.FromNanos(176)
	case XeonE5_2650v3:
		cfg.Name = "Intel Xeon E5-2650 v3"
		cfg.Family = perf.Haswell
		cfg.CoresPerSocket = 10
		cfg.Core.FreqHz = 2.3e9
		cfg.L3 = cache.Config{Name: "L3", SizeBytes: 25 << 20, Ways: 20,
			LookupLat: sim.FromNanos(13.0)}
		// DDR4-2133.
		cfg.Mem.Channels = 4
		cfg.Mem.ChannelBandwidth = 17.0e9
		cfg.LocalLat = sim.FromNanos(120)
		cfg.RemoteLat = sim.FromNanos(175)
	}
	return cfg
}

// NewPreset assembles a machine for preset p.
func NewPreset(p Preset) (*Machine, error) {
	cfg := PresetConfig(p)
	m, err := New(cfg)
	if err != nil {
		return nil, fmt.Errorf("machine: preset %v: %w", p, err)
	}
	return m, nil
}
