package perf

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTable1EventNames(t *testing.T) {
	// Spot-check the exact mnemonics from the paper's Table 1.
	tests := []struct {
		family Family
		event  Event
		want   string
	}{
		{SandyBridge, EventStallsL2Pending, "CYCLE_ACTIVITY:STALLS_L2_PENDING"},
		{SandyBridge, EventL3Hit, "MEM_LOAD_UOPS_RETIRED:L3_HIT"},
		{SandyBridge, EventL3Miss, "MEM_LOAD_UOPS_MISC_RETIRED:LLC_MISS"},
		{IvyBridge, EventL3Hit, "MEM_LOAD_UOPS_LLC_HIT_RETIRED:XSNP_NONE"},
		{IvyBridge, EventL3MissLocal, "MEM_LOAD_UOPS_LLC_MISS_RETIRED:LOCAL_DRAM"},
		{IvyBridge, EventL3MissRemote, "MEM_LOAD_UOPS_LLC_MISS_RETIRED:REMOTE_DRAM"},
		{Haswell, EventL3Hit, "MEM_LOAD_UOPS_L3_HIT_RETIRED:XSNP_NONE"},
		{Haswell, EventL3MissLocal, "MEM_LOAD_UOPS_L3_MISS_RETIRED:LOCAL_DRAM"},
	}
	for _, tt := range tests {
		got, ok := EventName(tt.family, tt.event)
		if !ok || got != tt.want {
			t.Errorf("EventName(%v, %v) = %q/%v, want %q", tt.family, tt.event, got, ok, tt.want)
		}
	}
}

func TestTable1IvyHaswellDifferOnlyInLLCvsL3(t *testing.T) {
	// Footnote 3: Ivy Bridge and Haswell events are the same modulo the
	// "LLC" -> "L3" rename.
	for _, e := range EventsFor(IvyBridge) {
		ivy, ok1 := EventName(IvyBridge, e)
		has, ok2 := EventName(Haswell, e)
		if !ok1 || !ok2 {
			t.Fatalf("event %v missing on a family", e)
		}
		if strings.ReplaceAll(ivy, "LLC", "L3") != has {
			t.Errorf("event %v: ivy %q does not map to haswell %q via LLC->L3", e, ivy, has)
		}
	}
}

func TestUnavailableEvents(t *testing.T) {
	if _, ok := EventName(SandyBridge, EventL3MissLocal); ok {
		t.Error("Sandy Bridge must not expose local/remote miss split")
	}
	if _, ok := EventName(IvyBridge, EventL3Miss); ok {
		t.Error("Ivy Bridge programs split events, not the total-miss event")
	}
	if SplitsLocalRemote(SandyBridge) {
		t.Error("SplitsLocalRemote(SandyBridge) = true, want false")
	}
	if !SplitsLocalRemote(Haswell) {
		t.Error("SplitsLocalRemote(Haswell) = false, want true")
	}
}

func TestEventsForCounts(t *testing.T) {
	if got := len(EventsFor(SandyBridge)); got != 3 {
		t.Errorf("Sandy Bridge programs %d events, want 3", got)
	}
	// §3.3: the two-memory model needs at most four counters.
	if got := len(EventsFor(Haswell)); got != 4 {
		t.Errorf("Haswell programs %d events, want 4", got)
	}
}

// TestProgrammedEventsHaveNames: every event the emulator programs — the
// Table 1 set and the store-side set of the asymmetric model — has a
// mnemonic on all three families, so attaching never asks a bank for an
// event it cannot count.
func TestProgrammedEventsHaveNames(t *testing.T) {
	for _, f := range []Family{SandyBridge, IvyBridge, Haswell} {
		for _, e := range append(EventsFor(f), StoreEventsFor(f)...) {
			if _, ok := EventName(f, e); !ok {
				t.Errorf("%v programs %v but has no name for it", f, e)
			}
		}
	}
}

func TestReadCostCycles(t *testing.T) {
	// §3.2: reading all counters via PAPI is about 8x the rdpmc cost.
	r := ReadCostCycles(RDPMC, 4)
	p := ReadCostCycles(PAPI, 4)
	if r != 2000 {
		t.Errorf("rdpmc cost = %d cycles, want 2000", r)
	}
	if p != 30000 {
		t.Errorf("PAPI cost = %d cycles, want 30000", p)
	}
	if ratio := float64(p) / float64(r); math.Abs(ratio-15) > 16 || ratio < 8 {
		t.Errorf("PAPI/rdpmc ratio = %g, want >= 8", ratio)
	}
}

func TestCountersDisabledByDefault(t *testing.T) {
	c := NewCounters(IvyBridge, Fidelity{StallBias: 1})
	c.AddStallCycles(100)
	c.CountL3Hit()
	c.CountL3Miss(false)
	if v, err := c.Read(EventL3Hit); err != nil || v != 0 {
		t.Errorf("disabled counter read = %d (%v), want 0", v, err)
	}
}

func TestCountersAccumulateAndReset(t *testing.T) {
	c := NewCounters(Haswell, Fidelity{StallBias: 1})
	c.SetEnabled(true)
	c.AddStallCycles(1234)
	c.CountL3Hit()
	c.CountL3Hit()
	c.CountL3Miss(false)
	c.CountL3Miss(true)
	c.CountL3Miss(true)

	if v, _ := c.Read(EventL3Hit); v != 2 {
		t.Errorf("L3 hits = %d, want 2", v)
	}
	if v, _ := c.Read(EventL3MissLocal); v != 1 {
		t.Errorf("local misses = %d, want 1", v)
	}
	if v, _ := c.Read(EventL3MissRemote); v != 2 {
		t.Errorf("remote misses = %d, want 2", v)
	}
	if v, _ := c.Read(EventStallsL2Pending); v != 1234 {
		t.Errorf("stalls = %d, want 1234 with unit fidelity", v)
	}
}

func TestSandyBridgeTotalMissOnly(t *testing.T) {
	c := NewCounters(SandyBridge, DefaultFidelity(SandyBridge))
	c.SetEnabled(true)
	c.CountL3Miss(false)
	c.CountL3Miss(true)
	if v, err := c.Read(EventL3Miss); err != nil || v != 2 {
		t.Errorf("total miss = %d (%v), want 2", v, err)
	}
	if _, err := c.Read(EventL3MissLocal); err == nil {
		t.Error("Sandy Bridge local-miss read succeeded, want error")
	}
}

func TestStallBiasApplied(t *testing.T) {
	c := NewCounters(SandyBridge, Fidelity{StallBias: 1.10})
	c.SetEnabled(true)
	c.AddStallCycles(10000)
	v, err := c.Read(EventStallsL2Pending)
	if err != nil {
		t.Fatal(err)
	}
	if v < 10900 || v > 11100 {
		t.Errorf("biased stall read = %d, want ~11000", v)
	}
	if c.TrueStallCycles() != 10000 {
		t.Errorf("true stalls = %g, want 10000 (bias must not touch ground truth)", c.TrueStallCycles())
	}
}

func TestStallNoiseBoundedAndDeterministic(t *testing.T) {
	accumulate := func() []uint64 {
		c := NewCounters(Haswell, Fidelity{StallBias: 1, StallNoise: 0.05})
		c.SetEnabled(true)
		var out []uint64
		for i := 0; i < 16; i++ {
			c.AddStallCycles(1e6)
			v, err := c.Read(EventStallsL2Pending)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, v)
		}
		return out
	}
	a, b := accumulate(), accumulate()
	var prev uint64
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("noise is not deterministic: sample %d gave %d then %d", i, a[i], b[i])
		}
		// Each increment is 1e6 cycles +- 5%: the delta stays in band and
		// the register is monotone (counters never run backwards).
		delta := a[i] - prev
		if delta < 950_000 || delta > 1_050_000 {
			t.Errorf("noisy increment %d = %d outside +-5%% band", i, delta)
		}
		prev = a[i]
	}
}

func TestDefaultFidelityOrdering(t *testing.T) {
	// The paper's accuracy ordering: Ivy Bridge best, Haswell middle,
	// Sandy Bridge worst.
	sb, ib, hw := DefaultFidelity(SandyBridge), DefaultFidelity(IvyBridge), DefaultFidelity(Haswell)
	devSB := math.Abs(sb.StallBias-1) + sb.StallNoise
	devIB := math.Abs(ib.StallBias-1) + ib.StallNoise
	devHW := math.Abs(hw.StallBias-1) + hw.StallNoise
	if !(devIB < devHW && devHW < devSB) {
		t.Errorf("fidelity deviation ordering violated: SB=%g IB=%g HW=%g", devSB, devIB, devHW)
	}
}

func TestNoiseUnitRangeProperty(t *testing.T) {
	prop := func(seq uint64) bool {
		v := noiseUnit(seq)
		return v >= -1 && v <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestStringers(t *testing.T) {
	if SandyBridge.String() != "Sandy Bridge" || Haswell.String() != "Haswell" {
		t.Error("Family.String mismatch")
	}
	if EventStallsL2Pending.String() != "L2_stalls" {
		t.Error("Event.String mismatch")
	}
	if RDPMC.String() != "rdpmc" || PAPI.String() != "papi" {
		t.Error("AccessMode.String mismatch")
	}
}
