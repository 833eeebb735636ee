package kmod

import (
	"math"
	"testing"

	"github.com/quartz-emu/quartz/internal/machine"
	"github.com/quartz-emu/quartz/internal/mem"
	"github.com/quartz-emu/quartz/internal/perf"
)

func mustMachine(t *testing.T) *machine.Machine {
	t.Helper()
	m, err := machine.NewPreset(machine.XeonE5_2660v2)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(nil); err == nil {
		t.Error("Open(nil) succeeded")
	}
	if _, err := Open(mustMachine(t)); err != nil {
		t.Errorf("Open failed: %v", err)
	}
}

func TestSetThrottleProgramsRegisters(t *testing.T) {
	m := mustMachine(t)
	k, err := Open(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SetThrottle(0, 1234); err != nil {
		t.Fatal(err)
	}
	if got := m.Socket(0).Ctrl.Throttle(); got != 1234 {
		t.Errorf("socket 0 register = %d, want 1234", got)
	}
	if got := m.Socket(1).Ctrl.Throttle(); got == 1234 {
		t.Error("SetThrottle(0,...) leaked to socket 1")
	}
	if err := k.SetThrottleAll(2222); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		if got := m.Socket(s).Ctrl.Throttle(); got != 2222 {
			t.Errorf("socket %d register = %d after SetThrottleAll", s, got)
		}
		if got := m.Socket(s).Ctrl.WriteThrottle(); got != 2222 {
			t.Errorf("socket %d write register = %d after SetThrottleAll", s, got)
		}
	}
}

func TestSetThrottleErrors(t *testing.T) {
	k, err := Open(mustMachine(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SetThrottle(7, 100); err == nil {
		t.Error("invalid socket accepted")
	}
	if err := k.SetThrottle(0, mem.RegisterMax+1); err == nil {
		t.Error("13-bit register value accepted")
	}
	if err := k.SetReadThrottle(7, 100); err == nil {
		t.Error("SetReadThrottle invalid socket accepted")
	}
	if err := k.SetWriteThrottle(7, 100); err == nil {
		t.Error("SetWriteThrottle invalid socket accepted")
	}
}

func TestAsymmetricRegisters(t *testing.T) {
	m := mustMachine(t)
	k, err := Open(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SetReadThrottle(0, 4095); err != nil {
		t.Fatal(err)
	}
	if err := k.SetWriteThrottle(0, 512); err != nil {
		t.Fatal(err)
	}
	ctrl := m.Socket(0).Ctrl
	if ctrl.ChannelBandwidth() <= ctrl.ChannelWriteBandwidth() {
		t.Errorf("read bw %g not above write bw %g after asymmetric throttle",
			ctrl.ChannelBandwidth(), ctrl.ChannelWriteBandwidth())
	}
}

func TestProgramCountersEnablesAllCores(t *testing.T) {
	m := mustMachine(t)
	k, err := Open(m)
	if err != nil {
		t.Fatal(err)
	}
	if k.Programmed() {
		t.Error("module claims programmed before ProgramCounters")
	}
	if err := k.ProgramCounters(); err != nil {
		t.Fatal(err)
	}
	if !k.Programmed() {
		t.Error("Programmed() false after ProgramCounters")
	}
	for i, c := range m.Cores() {
		if !c.Counters().Enabled() {
			t.Fatalf("core %d counters not enabled", i)
		}
	}
	k.EnableUserRDPMC()
	if !k.UserRDPMCEnabled() {
		t.Error("user rdpmc not enabled")
	}
}

func TestThrottleForBandwidthInvertsLinearRamp(t *testing.T) {
	m := mustMachine(t)
	k, err := Open(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []float64{2e9, 10e9, 25e9} {
		reg, err := k.ThrottleForBandwidth(0, target)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.SetThrottle(0, reg); err != nil {
			t.Fatal(err)
		}
		got := m.Socket(0).Ctrl.EffectiveBandwidth()
		if math.Abs(got-target)/target > 0.02 {
			t.Errorf("target %g -> register %d -> %g (%.1f%% off)", target, reg, got, 100*math.Abs(got-target)/target)
		}
	}
	if _, err := k.ThrottleForBandwidth(9, 1e9); err == nil {
		t.Error("invalid socket accepted")
	}
}

func TestCalibrationTable(t *testing.T) {
	table := CalibrationTable{
		{Register: 512, Bandwidth: 10e9},
		{Register: 1024, Bandwidth: 20e9},
		{Register: 2048, Bandwidth: 38e9},
		{Register: 4095, Bandwidth: 38.4e9},
	}
	if err := table.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := table.MaxBandwidth(); got != 38.4e9 {
		t.Errorf("MaxBandwidth = %g", got)
	}
	// Exact point.
	reg, err := table.RegisterFor(20e9)
	if err != nil {
		t.Fatal(err)
	}
	if reg != 1024 {
		t.Errorf("RegisterFor(20e9) = %d, want 1024", reg)
	}
	// Interpolated point: halfway between 10 and 20 GB/s.
	reg, err = table.RegisterFor(15e9)
	if err != nil {
		t.Fatal(err)
	}
	if reg < 700 || reg > 850 {
		t.Errorf("RegisterFor(15e9) = %d, want ~768", reg)
	}
	// Below range clamps low; above range clamps high.
	if reg, _ := table.RegisterFor(1e9); reg != 512 {
		t.Errorf("below-range register = %d", reg)
	}
	if reg, _ := table.RegisterFor(1e12); reg != 4095 {
		t.Errorf("above-range register = %d", reg)
	}
}

func TestCalibrationTableValidation(t *testing.T) {
	if err := (CalibrationTable{}).Validate(); err == nil {
		t.Error("empty table accepted")
	}
	bad := CalibrationTable{{Register: 100, Bandwidth: 1}, {Register: 50, Bandwidth: 2}}
	if err := bad.Validate(); err == nil {
		t.Error("unsorted table accepted")
	}
	if _, err := bad.RegisterFor(1); err == nil {
		t.Error("RegisterFor on unsorted table succeeded")
	}
}

func TestCountersAvailableForAllFamilies(t *testing.T) {
	for _, p := range machine.Presets() {
		m, err := machine.NewPreset(p)
		if err != nil {
			t.Fatal(err)
		}
		k, err := Open(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.ProgramCounters(); err != nil {
			t.Errorf("%v: ProgramCounters failed: %v", p, err)
		}
		for _, e := range perf.EventsFor(m.Family()) {
			if _, ok := perf.EventName(m.Family(), e); !ok {
				t.Errorf("%v: event %v unprogrammable", p, e)
			}
		}
	}
}
