package machine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/quartz-emu/quartz/internal/cpu"
	"github.com/quartz-emu/quartz/internal/mem"
	"github.com/quartz-emu/quartz/internal/perf"
	"github.com/quartz-emu/quartz/internal/sim"
)

func TestAllPresetsAssemble(t *testing.T) {
	for _, p := range Presets() {
		t.Run(p.String(), func(t *testing.T) {
			m, err := NewPreset(p)
			if err != nil {
				t.Fatal(err)
			}
			cfg := m.Config()
			if got := len(m.Sockets()); got != cfg.Sockets {
				t.Errorf("sockets = %d, want %d", got, cfg.Sockets)
			}
			if got := len(m.Cores()); got != cfg.Sockets*cfg.CoresPerSocket {
				t.Errorf("cores = %d, want %d", got, cfg.Sockets*cfg.CoresPerSocket)
			}
			// Cores of one socket share the L3; across sockets they differ.
			s0 := m.Socket(0)
			addr := m.NodeBase(0) + 1<<20
			s0.Cores[0].Load(0, addr)
			if _, src := s0.Cores[1].Load(sim.Millisecond, addr); src != cpu.SrcL3 {
				t.Errorf("core 1 load of core 0's line served by %v, want the shared L3", src)
			}
			if m.Socket(0).L3 == m.Socket(1).L3 {
				t.Error("sockets share an L3")
			}
		})
	}
}

func TestPresetParameters(t *testing.T) {
	tests := []struct {
		preset Preset
		family perf.Family
		cores  int
		local  sim.Time
		remote sim.Time
	}{
		{XeonE5_2450, perf.SandyBridge, 8, sim.FromNanos(97), sim.FromNanos(163)},
		{XeonE5_2660v2, perf.IvyBridge, 10, sim.FromNanos(87), sim.FromNanos(176)},
		{XeonE5_2650v3, perf.Haswell, 10, sim.FromNanos(120), sim.FromNanos(175)},
	}
	for _, tt := range tests {
		cfg := PresetConfig(tt.preset)
		if cfg.Family != tt.family || cfg.CoresPerSocket != tt.cores {
			t.Errorf("%v: family/cores = %v/%d, want %v/%d", tt.preset, cfg.Family, cfg.CoresPerSocket, tt.family, tt.cores)
		}
		if cfg.LocalLat != tt.local || cfg.RemoteLat != tt.remote {
			t.Errorf("%v: latencies = %v/%v, want %v/%v", tt.preset, cfg.LocalLat, cfg.RemoteLat, tt.local, tt.remote)
		}
	}
}

func TestPresetFor(t *testing.T) {
	for _, tt := range []struct {
		name string
		want Preset
	}{
		{"sandybridge", XeonE5_2450},
		{"ivybridge", XeonE5_2660v2},
		{"haswell", XeonE5_2650v3},
		{"skylake", 0},
		{"", 0},
		{"Haswell", 0},
	} {
		got, err := PresetByName(tt.name)
		if got != tt.want || (err != nil) != (tt.want == 0) {
			t.Errorf("PresetByName(%q) = %v, %v; want %v", tt.name, got, err, tt.want)
		}
		if err != nil && !strings.Contains(err.Error(), fmt.Sprintf("%q", tt.name)) {
			t.Errorf("PresetByName(%q) error %q does not name the value", tt.name, err)
		}
	}
}

func TestHomeNodeMapping(t *testing.T) {
	m, err := NewPreset(XeonE5_2660v2)
	if err != nil {
		t.Fatal(err)
	}
	if m.HomeNode(m.NodeBase(0)+4096) != 0 {
		t.Error("node 0 address mapped elsewhere")
	}
	if m.HomeNode(m.NodeBase(1)+4096) != 1 {
		t.Error("node 1 address mapped elsewhere")
	}
	// Addresses beyond the last node clamp to it.
	if m.HomeNode(uintptr(7)<<NodeShift) != 1 {
		t.Error("out-of-range address did not clamp to last node")
	}
}

func TestLocalVsRemoteAccessLatency(t *testing.T) {
	m, err := NewPreset(XeonE5_2660v2)
	if err != nil {
		t.Fatal(err)
	}
	local := m.Access(0, m.NodeBase(0), mem.Read, 0)
	remote := m.Access(0, m.NodeBase(1), mem.Read, 0)
	cfg := m.Config()
	if wantGap := cfg.RemoteLat - cfg.LocalLat; remote-local != wantGap {
		t.Errorf("remote-local gap = %v, want %v", remote-local, wantGap)
	}
	walk := cfg.L1.LookupLat + cfg.L2.LookupLat + cfg.L3.LookupLat
	if local+walk != cfg.LocalLat {
		t.Errorf("local end-to-end = %v, want %v", local+walk, cfg.LocalLat)
	}
}

func TestEndToEndLoadLatencyMatchesTable2(t *testing.T) {
	// A cold load through a preset core must cost exactly the Table 2
	// local latency; a second, remote cold load the remote latency.
	for _, p := range Presets() {
		m, err := NewPreset(p)
		if err != nil {
			t.Fatal(err)
		}
		core := m.Core(0)
		core.Counters().SetEnabled(true)
		cfg := m.Config()
		latL, _ := core.Load(0, m.NodeBase(0)+1<<20)
		latR, _ := core.Load(0, m.NodeBase(1)+1<<20)
		if latL != cfg.LocalLat {
			t.Errorf("%v: local load = %v, want %v", p, latL, cfg.LocalLat)
		}
		if latR != cfg.RemoteLat {
			t.Errorf("%v: remote load = %v, want %v", p, latR, cfg.RemoteLat)
		}
	}
}

func TestConfigValidateRejectsBadLatencies(t *testing.T) {
	cfg := PresetConfig(XeonE5_2450)
	cfg.LocalLat = sim.FromNanos(5) // below the cache walk
	if _, err := New(cfg); err == nil {
		t.Error("New accepted LocalLat below cache walk")
	}
	cfg = PresetConfig(XeonE5_2450)
	cfg.RemoteLat = cfg.LocalLat - 1
	if _, err := New(cfg); err == nil {
		t.Error("New accepted RemoteLat < LocalLat")
	}
	cfg = PresetConfig(XeonE5_2450)
	cfg.Sockets = 0
	if _, err := New(cfg); err == nil {
		t.Error("New accepted zero sockets")
	}
}

func TestCountersPerCoreIndependent(t *testing.T) {
	m, err := NewPreset(XeonE5_2450)
	if err != nil {
		t.Fatal(err)
	}
	c0, c1 := m.Core(0), m.Core(1)
	c0.Counters().SetEnabled(true)
	c1.Counters().SetEnabled(true)
	c0.Load(0, m.NodeBase(0)+2<<20)
	if c1.Counters().TrueStallCycles() != 0 {
		t.Error("core 1 counters affected by core 0 load")
	}
}

func TestCustomMachineConfig(t *testing.T) {
	// A scaled testbed: preset structure with a smaller L3 and wider
	// channels, as the application experiments use.
	cfg := PresetConfig(XeonE5_2660v2)
	cfg.L3.SizeBytes = 256 << 10
	cfg.L3.Ways = 16
	cfg.Mem.ChannelBandwidth *= 4
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Socket(0).Ctrl.PeakBandwidth(); got != 4*4*12.8e9 {
		t.Errorf("custom peak bandwidth = %g", got)
	}
	// Table 2 latencies unaffected by the scaling.
	core := m.Core(0)
	lat, _ := core.Load(0, m.NodeBase(0)+1<<20)
	if lat != cfg.LocalLat {
		t.Errorf("scaled machine local load = %v, want %v", lat, cfg.LocalLat)
	}
}

func TestSmallerL3MissesMore(t *testing.T) {
	run := func(l3 int) int64 {
		cfg := PresetConfig(XeonE5_2660v2)
		cfg.L3.SizeBytes = l3
		cfg.L3.Ways = 16
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		core := m.Core(0)
		core.Counters().SetEnabled(true)
		// 1 MiB working set, swept twice.
		var now sim.Time
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < 16384; i++ {
				lat, _ := core.Load(now, m.NodeBase(0)+uintptr(1<<20)+uintptr(i*64))
				now += lat
			}
		}
		s := m.Socket(0).L3.Stats()
		return s.Misses
	}
	small := run(256 << 10)
	big := run(8 << 20)
	if small <= big {
		t.Errorf("256KiB L3 misses (%d) not above 8MiB L3 misses (%d)", small, big)
	}
}

// TestRegisterForBandwidthInvertsLinearRamp: on every preset's socket
// controllers, the register RegisterForBandwidth picks for a target below
// the peak programs an effective bandwidth within 2% of that target.
func TestRegisterForBandwidthInvertsLinearRamp(t *testing.T) {
	for _, p := range Presets() {
		m, err := NewPreset(p)
		if err != nil {
			t.Fatal(err)
		}
		for s, sock := range m.Sockets() {
			ctrl := sock.Ctrl
			for _, frac := range []float64{0.05, 0.25, 0.6} {
				target := frac * ctrl.PeakBandwidth()
				reg := ctrl.RegisterForBandwidth(target)
				if err := ctrl.SetThrottle(reg); err != nil {
					t.Fatal(err)
				}
				if got := ctrl.EffectiveBandwidth(); math.Abs(got-target)/target > 0.02 {
					t.Errorf("%v socket %d: target %g -> register %d -> %g", p, s, target, reg, got)
				}
			}
		}
	}
}

// TestEmulatorWriteCurve: the emulator's curve repeats the 1-writer entry
// in front, so registered thread T+1 (T writers plus main) reads the
// T-writer entry; a profile without a curve yields none.
func TestEmulatorWriteCurve(t *testing.T) {
	optane, _ := NVMProfileByName("optane-dcpmm")
	curve := optane.WriteBandwidthByThreads
	got := optane.EmulatorWriteCurve()
	if len(got) != len(curve)+1 || got[0] != curve[0] {
		t.Fatalf("emulator curve = %v for profile curve %v", got, curve)
	}
	for writers := 1; writers <= len(curve); writers++ {
		if registered := writers + 1; got[registered-1] != curve[writers-1] {
			t.Errorf("%d writers: emulator entry %g, want %g", writers, got[registered-1], curve[writers-1])
		}
	}
	if c := (NVMProfile{}).EmulatorWriteCurve(); c != nil {
		t.Errorf("profile without a curve: EmulatorWriteCurve = %v", c)
	}
}
