package quartz

import (
	"math"
	"strings"
	"testing"
)

func TestNewSystemAndRun(t *testing.T) {
	sys, err := NewSystem(IvyBridge, Config{
		NVMLatency: Nanoseconds(400),
		InitCycles: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var measured float64
	err = sys.Run(func(th *Thread) {
		buf, err := sys.PMalloc(64 << 20)
		if err != nil {
			th.Failf("pmalloc: %v", err)
		}
		// Chase far beyond the L3 so every access misses.
		const n = 1 << 19
		const iters = 30_000
		cur := uintptr(0)
		start := th.Now()
		for i := 0; i < iters; i++ {
			th.Load(buf + cur*64)
			cur = (cur*1103515245 + 12345) % n
		}
		measured = float64(th.SettledNow()-start) / iters / 1e6 // ns per access
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(measured-400)/400 > 0.08 {
		t.Errorf("facade chase measured %.1fns, want ~400ns", measured)
	}
	st := sys.Stats()
	if st.Epochs == 0 {
		t.Error("no epochs recorded through facade")
	}
	if s := sys.String(); !strings.Contains(s, "E5-2660") {
		t.Errorf("System.String() = %q", s)
	}
}

func TestNewSystemRejectsBadConfig(t *testing.T) {
	if _, err := NewSystem(SandyBridge, Config{NVMLatency: Nanoseconds(10)}); err == nil {
		t.Error("NVM below DRAM accepted through facade")
	}
}

func TestTimeHelpers(t *testing.T) {
	if Nanoseconds(1).Nanoseconds() != 1 {
		t.Error("Nanoseconds round trip failed")
	}
	if Milliseconds(2).Milliseconds() != 2 {
		t.Error("Milliseconds round trip failed")
	}
}

func TestPresetsDiffer(t *testing.T) {
	a, err := NewMachine(SandyBridge)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMachine(Haswell)
	if err != nil {
		t.Fatal(err)
	}
	if a.Config().Name == b.Config().Name {
		t.Error("presets produced identical machines")
	}
}
