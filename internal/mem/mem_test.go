package mem

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/quartz-emu/quartz/internal/sim"
)

func testConfig() Config {
	return Config{
		Channels:          4,
		ChannelBandwidth:  12.8e9,
		ThrottleFullScale: 2048,
	}
}

func mustController(t *testing.T) *Controller {
	t.Helper()
	c, err := NewController(testConfig())
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
		{"zero-channels", func(c *Config) { c.Channels = 0 }, true},
		{"negative-bandwidth", func(c *Config) { c.ChannelBandwidth = -1 }, true},
		{"zero-fullscale", func(c *Config) { c.ThrottleFullScale = 0 }, true},
		{"fullscale-too-big", func(c *Config) { c.ThrottleFullScale = RegisterMax + 1 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := testConfig()
			tt.mutate(&cfg)
			err := cfg.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestThrottleRegisterBounds(t *testing.T) {
	c := mustController(t)
	if err := c.SetThrottle(RegisterMax); err != nil {
		t.Errorf("SetThrottle(max) = %v", err)
	}
	if err := c.SetThrottle(RegisterMax + 1); err == nil {
		t.Error("SetThrottle(max+1) succeeded, want 12-bit rejection")
	}
}

// TestSetThrottleErrors: each register setter rejects a 13-bit value and
// leaves the register it would have written unchanged.
func TestSetThrottleErrors(t *testing.T) {
	c := mustController(t)
	if err := c.SetThrottle(100); err != nil {
		t.Fatal(err)
	}
	for name, set := range map[string]func(uint16) error{
		"SetThrottle":      c.SetThrottle,
		"SetReadThrottle":  c.SetReadThrottle,
		"SetWriteThrottle": c.SetWriteThrottle,
	} {
		if err := set(RegisterMax + 1); err == nil {
			t.Errorf("%s(max+1) succeeded, want 12-bit rejection", name)
		}
	}
	if r, w := c.Throttle(), c.WriteThrottle(); r != 100 || w != 100 {
		t.Errorf("registers after rejected writes = %d/%d, want 100/100", r, w)
	}
}

// TestAsymmetricRegisters: the read and write registers are independent,
// so a low write register caps write bandwidth below read bandwidth.
func TestAsymmetricRegisters(t *testing.T) {
	c := mustController(t)
	if err := c.SetReadThrottle(RegisterMax); err != nil {
		t.Fatal(err)
	}
	if err := c.SetWriteThrottle(512); err != nil {
		t.Fatal(err)
	}
	if r, w := c.Throttle(), c.WriteThrottle(); r != RegisterMax || w != 512 {
		t.Errorf("registers = %d/%d, want %d/512", r, w, RegisterMax)
	}
	if c.ChannelBandwidth() <= c.ChannelWriteBandwidth() {
		t.Errorf("read bw %g not above write bw %g after asymmetric throttle",
			c.ChannelBandwidth(), c.ChannelWriteBandwidth())
	}
}

func TestThrottleLinearity(t *testing.T) {
	// The paper's Fig. 8: bandwidth is linear in the register value until
	// the peak is reached, then flat.
	c := mustController(t)
	full := testConfig().ChannelBandwidth

	if err := c.SetThrottle(1024); err != nil {
		t.Fatal(err)
	}
	if got, want := c.ChannelBandwidth(), full/2; math.Abs(got-want) > 1 {
		t.Errorf("half-scale bandwidth = %g, want %g", got, want)
	}

	if err := c.SetThrottle(512); err != nil {
		t.Fatal(err)
	}
	if got, want := c.ChannelBandwidth(), full/4; math.Abs(got-want) > 1 {
		t.Errorf("quarter-scale bandwidth = %g, want %g", got, want)
	}

	if err := c.SetThrottle(4095); err != nil {
		t.Fatal(err)
	}
	if got := c.ChannelBandwidth(); got != full {
		t.Errorf("above-full-scale bandwidth = %g, want saturation at %g", got, full)
	}

	if err := c.SetThrottle(0); err != nil {
		t.Fatal(err)
	}
	if got := c.ChannelBandwidth(); got <= 0 {
		t.Errorf("zero-register bandwidth = %g, must stay positive", got)
	}
}

func TestRegisterForBandwidthRoundTrip(t *testing.T) {
	c := mustController(t)
	for _, target := range []float64{1e9, 5e9, 10e9, 25e9, 40e9} {
		reg := c.RegisterForBandwidth(target)
		if err := c.SetThrottle(reg); err != nil {
			t.Fatal(err)
		}
		got := c.EffectiveBandwidth()
		if rel := math.Abs(got-target) / target; rel > 0.01 {
			t.Errorf("target %g: register %d gives %g (%.2f%% off)", target, reg, got, rel*100)
		}
	}
	if got := c.RegisterForBandwidth(1e15); got != RegisterMax {
		t.Errorf("huge target register = %d, want max", got)
	}
	if got := c.RegisterForBandwidth(-5); got != 1 {
		t.Errorf("negative target register = %d, want 1", got)
	}
}

func TestAccessUnloadedLatency(t *testing.T) {
	c := mustController(t)
	service := 97 * sim.Nanosecond
	done := c.Access(0, 0, Read, service)
	if done != service {
		t.Errorf("unloaded read completes at %v, want %v", done, service)
	}
}

func TestAccessSameChannelQueues(t *testing.T) {
	c := mustController(t)
	service := 100 * sim.Nanosecond
	// Two back-to-back accesses to the same line map to the same channel;
	// the second must wait for the first transfer slot.
	first := c.Access(0, 0, Read, service)
	second := c.Access(0, 0, Read, service)
	if second <= first {
		t.Errorf("second access on same channel done at %v, want after %v", second, first)
	}
	occupancy := sim.Time(64.0 / c.ChannelBandwidth() * float64(sim.Second))
	if want := occupancy + service; second != want {
		t.Errorf("second access done at %v, want %v", second, want)
	}
}

func TestAccessDifferentChannelsOverlap(t *testing.T) {
	c := mustController(t)
	service := 100 * sim.Nanosecond
	d0 := c.Access(0, 0*LineSize, Read, service)
	d1 := c.Access(0, 1*LineSize, Read, service)
	if d0 != service || d1 != service {
		t.Errorf("parallel accesses done at %v, %v; want both %v", d0, d1, service)
	}
	if got := c.Stats().QueueTime; got != 0 {
		t.Errorf("queue time = %v, want 0 for disjoint channels", got)
	}
}

func TestThrottledAccessesQueueLonger(t *testing.T) {
	c := mustController(t)
	service := 100 * sim.Nanosecond
	burst := func() sim.Time {
		var last sim.Time
		for i := 0; i < 64; i++ {
			last = c.Access(0, 0, Read, service) // all on one channel
		}
		return last
	}
	fast := burst()
	if err := c.SetThrottle(128); err != nil {
		t.Fatal(err)
	}
	c.nextFree = make([]sim.Time, testConfig().Channels) // fresh channels
	slow := burst()
	if slow <= fast {
		t.Errorf("throttled burst done at %v, unthrottled at %v; throttling must slow it", slow, fast)
	}
}

func TestStatsAccounting(t *testing.T) {
	c := mustController(t)
	c.Access(0, 0, Read, 0)
	c.Access(0, 64, Write, 0)
	c.Access(0, 128, Writeback, 0)
	c.Access(0, 192, Prefetch, 0)
	s := c.Stats()
	if s.Reads != 1 || s.Writes != 1 || s.Writebacks != 1 || s.Prefetches != 1 {
		t.Errorf("stats = %+v, want one of each kind", s)
	}
	if s.BytesWritten != 64 {
		t.Errorf("bytes written = %d, want 64", s.BytesWritten)
	}
	if s.BytesRead != 3*64 {
		t.Errorf("bytes read = %d, want 192", s.BytesRead)
	}
}

// TestBandwidthCapProperty streams many lines through the controller and
// checks the achieved bandwidth never exceeds the throttled cap.
func TestBandwidthCapProperty(t *testing.T) {
	prop := func(regRaw uint16, nRaw uint8) bool {
		reg := regRaw % (RegisterMax + 1)
		if reg < 16 {
			reg = 16 // avoid pathological slowness
		}
		n := int(nRaw)%512 + 256
		c, err := NewController(testConfig())
		if err != nil {
			return false
		}
		if err := c.SetThrottle(reg); err != nil {
			return false
		}
		occupancy := sim.Time(64.0 / c.ChannelBandwidth() * float64(sim.Second))
		var last sim.Time
		for i := 0; i < n; i++ {
			done := c.Access(0, uintptr(i*64), Read, 0) + occupancy
			if done > last {
				last = done
			}
		}
		if last == 0 {
			return true
		}
		achieved := float64(n*64) / last.Seconds()
		return achieved <= c.EffectiveBandwidth()*1.001
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAccessKindString(t *testing.T) {
	if Read.String() != "read" || Writeback.String() != "writeback" {
		t.Error("AccessKind.String() mismatch")
	}
	if s := AccessKind(99).String(); s != "AccessKind(99)" {
		t.Errorf("unknown kind string = %q", s)
	}
}
