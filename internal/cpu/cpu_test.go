package cpu

import (
	"math"
	"testing"

	"github.com/quartz-emu/quartz/internal/cache"
	"github.com/quartz-emu/quartz/internal/mem"
	"github.com/quartz-emu/quartz/internal/perf"
	"github.com/quartz-emu/quartz/internal/sim"
)

// fakeMem is a MemorySystem with fixed service latencies and no bandwidth
// contention. Addresses at or above remoteBase live on node 1.
type fakeMem struct {
	localLat   sim.Time
	remoteLat  sim.Time
	remoteBase uintptr
	accesses   []mem.AccessKind
}

func (f *fakeMem) HomeNode(addr uintptr) int {
	if addr >= f.remoteBase {
		return 1
	}
	return 0
}

func (f *fakeMem) Access(now sim.Time, addr uintptr, kind mem.AccessKind, fromSocket int) sim.Time {
	f.accesses = append(f.accesses, kind)
	lat := f.localLat
	if f.HomeNode(addr) != fromSocket {
		lat = f.remoteLat
	}
	return now + lat
}

func testCore(t testing.TB, prefetchDepth int) (*Core, *fakeMem) {
	t.Helper()
	mk := func(name string, size, ways int, lat sim.Time) *cache.Cache {
		c, err := cache.New(cache.Config{Name: name, SizeBytes: size, Ways: ways, LookupLat: lat})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	l1 := mk("L1", 32<<10, 8, 1*sim.Nanosecond)
	l2 := mk("L2", 256<<10, 8, 4*sim.Nanosecond)
	l3 := mk("L3", 2<<20, 16, 12*sim.Nanosecond)
	fm := &fakeMem{localLat: 80 * sim.Nanosecond, remoteLat: 145 * sim.Nanosecond, remoteBase: 1 << 40}
	ctr := perf.NewCounters(perf.Haswell, perf.Fidelity{StallBias: 1})
	ctr.SetEnabled(true)
	core, err := NewCore(0, 0, Config{FreqHz: 2e9, MSHRs: 10, PrefetchDepth: prefetchDepth}, l1, l2, l3, ctr, fm, nil)
	if err != nil {
		t.Fatal(err)
	}
	return core, fm
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{"valid", Config{FreqHz: 2e9, MSHRs: 10}, false},
		{"zero-freq", Config{MSHRs: 10}, true},
		{"zero-mshr", Config{FreqHz: 2e9}, true},
		{"neg-prefetch", Config{FreqHz: 2e9, MSHRs: 10, PrefetchDepth: -1}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.cfg.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestColdLoadMissesToMemory(t *testing.T) {
	core, _ := testCore(t, 0)
	lat, src := core.Load(0, 0x10000)
	if src != SrcMemLocal {
		t.Fatalf("cold load source = %v, want local DRAM", src)
	}
	// 1 + 4 + 12 ns of lookups plus 80ns service.
	want := 97 * sim.Nanosecond
	if lat != want {
		t.Errorf("cold load latency = %v, want %v", lat, want)
	}
	if v, _ := core.Counters().Read(perf.EventL3MissLocal); v != 1 {
		t.Errorf("local miss count = %d, want 1", v)
	}
}

func TestWarmLoadHitsL1(t *testing.T) {
	core, _ := testCore(t, 0)
	core.Load(0, 0x10000)
	lat, src := core.Load(200*sim.Nanosecond, 0x10000)
	if src != SrcL1 {
		t.Fatalf("warm load source = %v, want L1", src)
	}
	if lat != 1*sim.Nanosecond {
		t.Errorf("warm load latency = %v, want 1ns", lat)
	}
}

func TestRemoteLoadSlower(t *testing.T) {
	core, _ := testCore(t, 0)
	latLocal, _ := core.Load(0, 0x10000)
	latRemote, src := core.Load(0, 1<<40)
	if src != SrcMemRemote {
		t.Fatalf("remote load source = %v", src)
	}
	if latRemote-latLocal != 65*sim.Nanosecond {
		t.Errorf("remote-local latency gap = %v, want 65ns", latRemote-latLocal)
	}
	if v, _ := core.Counters().Read(perf.EventL3MissRemote); v != 1 {
		t.Errorf("remote miss count = %d, want 1", v)
	}
}

func TestStallCyclesMatchMissLatency(t *testing.T) {
	core, _ := testCore(t, 0)
	lat, _ := core.Load(0, 0x10000)
	wantCycles := sim.TimeToCycles(lat, 2e9)
	got := core.Counters().TrueStallCycles()
	if math.Abs(got-wantCycles) > 0.5 {
		t.Errorf("stall cycles = %g, want %g", got, wantCycles)
	}
}

func TestL1HitAddsNoStall(t *testing.T) {
	core, _ := testCore(t, 0)
	core.Load(0, 0x10000)
	before := core.Counters().TrueStallCycles()
	core.Load(200*sim.Nanosecond, 0x10000)
	if after := core.Counters().TrueStallCycles(); after != before {
		t.Errorf("L1 hit changed stalls from %g to %g", before, after)
	}
}

func TestLoadGroupOverlapsLatency(t *testing.T) {
	core, _ := testCore(t, 0)
	// 8 independent cold misses issued in parallel must complete in far
	// less than 8x the serial latency, and stall cycles must be credited
	// once (MLP-aware), not per miss.
	addrs := make([]uintptr, 8)
	for i := range addrs {
		addrs[i] = uintptr(0x100000 + i*4096)
	}
	lat := core.LoadGroup(0, addrs)
	serial := 8 * 97 * sim.Nanosecond
	if lat >= serial/4 {
		t.Errorf("group latency %v not overlapped (serial would be %v)", lat, serial)
	}
	stalls := core.Counters().TrueStallCycles()
	oneMiss := sim.TimeToCycles(97*sim.Nanosecond, 2e9)
	if stalls > 1.5*oneMiss {
		t.Errorf("group stalls = %g cycles, want about one miss (%g)", stalls, oneMiss)
	}
}

func TestLoadGroupRespectsMSHRBound(t *testing.T) {
	core, _ := testCore(t, 0)
	// 20 parallel misses with 10 MSHRs needs at least two memory waves.
	addrs := make([]uintptr, 20)
	for i := range addrs {
		addrs[i] = uintptr(0x200000 + i*4096)
	}
	lat := core.LoadGroup(0, addrs)
	if lat < 2*97*sim.Nanosecond {
		t.Errorf("20 misses over 10 MSHRs took %v, want >= 2 serial waves (194ns)", lat)
	}
}

func TestStoreIsPosted(t *testing.T) {
	core, fm := testCore(t, 0)
	lat := core.Store(0, 0x30000)
	if lat != 1*sim.Nanosecond {
		t.Errorf("store latency = %v, want L1 latency (posted)", lat)
	}
	if core.Counters().TrueStallCycles() != 0 {
		t.Error("posted store accrued stall cycles")
	}
	if len(fm.accesses) != 1 || fm.accesses[0] != mem.Write {
		t.Errorf("store traffic = %v, want one write-allocate fill", fm.accesses)
	}
}

func TestStoreDirtiesLineForFlush(t *testing.T) {
	core, fm := testCore(t, 0)
	core.Store(0, 0x30000)
	fm.accesses = nil
	_, wbDone := core.Flush(100*sim.Nanosecond, 0x30000)
	if wbDone == 0 {
		t.Fatal("flush of dirty line produced no writeback")
	}
	if len(fm.accesses) != 1 || fm.accesses[0] != mem.Writeback {
		t.Errorf("flush traffic = %v, want one writeback", fm.accesses)
	}
	// Line must now be gone.
	if _, src := core.Load(500*sim.Nanosecond, 0x30000); src != SrcMemLocal {
		t.Errorf("post-flush load served from %v, want memory", src)
	}
}

func TestFlushCleanLineNoWriteback(t *testing.T) {
	core, _ := testCore(t, 0)
	core.Load(0, 0x40000)
	_, wbDone := core.Flush(200*sim.Nanosecond, 0x40000)
	if wbDone != 0 {
		t.Error("flush of clean line issued a writeback")
	}
}

func TestPrefetchHidesStreamLatency(t *testing.T) {
	run := func(depth int) sim.Time {
		core, _ := testCore(t, depth)
		var now, total sim.Time
		for i := 0; i < 512; i++ {
			lat, _ := core.Load(now, uintptr(0x100000+i*64))
			now += lat
			total += lat
		}
		return total
	}
	without := run(0)
	with := run(16)
	if with >= without*3/4 {
		t.Errorf("prefetch run %v not clearly faster than %v", with, without)
	}
}

func TestPrefetchDoesNotHelpPointerChase(t *testing.T) {
	// A pseudo-random access pattern must see no prefetch benefit.
	run := func(depth int) sim.Time {
		core, _ := testCore(t, depth)
		var now, total sim.Time
		x := uint32(7)
		for i := 0; i < 256; i++ {
			x = x*1664525 + 1013904223
			addr := uintptr(0x100000 + (x%65536)*64*7)
			lat, _ := core.Load(now, addr)
			now += lat
			total += lat
		}
		return total
	}
	without := run(0)
	with := run(16)
	diff := math.Abs(float64(with-without)) / float64(without)
	if diff > 0.05 {
		t.Errorf("random chase changed %.1f%% with prefetch on, want ~0", diff*100)
	}
}

func TestTSCInvariantUnderDVFS(t *testing.T) {
	d := NewDVFS(0.6, 100*sim.Microsecond)
	d.SetEnabled(true)
	core, _ := testCore(t, 0)
	coreD, err := NewCore(1, 0, core.cfg, core.L1(), core.L2(), core.l3, core.Counters(), &fakeMem{localLat: 80 * sim.Nanosecond, remoteBase: 1 << 40}, d)
	if err != nil {
		t.Fatal(err)
	}
	at := 150 * sim.Microsecond // inside the slow half-period
	if coreD.TSC(at) != core.TSC(at) {
		t.Error("TSC must be invariant under DVFS")
	}
	slow := coreD.ComputeTime(at, 1000)
	fast := core.ComputeTime(at, 1000)
	if slow <= fast {
		t.Errorf("DVFS slow-phase compute %v not slower than nominal %v", slow, fast)
	}
}

func TestDVFSDisabledIsUnity(t *testing.T) {
	d := NewDVFS(0.5, sim.Millisecond)
	for _, at := range []sim.Time{0, sim.Millisecond, 3 * sim.Millisecond} {
		if f := d.FactorAt(at); f != 1 {
			t.Errorf("disabled DVFS factor at %v = %g, want 1", at, f)
		}
	}
	var nilD *DVFS
	if nilD.Enabled() || nilD.FactorAt(0) != 1 {
		t.Error("nil DVFS must behave as disabled")
	}
}

func TestDVFSOscillates(t *testing.T) {
	d := NewDVFS(0.5, sim.Millisecond)
	d.SetEnabled(true)
	if f := d.FactorAt(500 * sim.Microsecond); f != 1 {
		t.Errorf("first half factor = %g, want 1", f)
	}
	if f := d.FactorAt(1500 * sim.Microsecond); f != 0.5 {
		t.Errorf("second half factor = %g, want 0.5", f)
	}
}

func TestNewCoreRejectsNilComponents(t *testing.T) {
	if _, err := NewCore(0, 0, Config{FreqHz: 1e9, MSHRs: 1}, nil, nil, nil, nil, nil, nil); err == nil {
		t.Error("NewCore with nil components succeeded")
	}
}

func TestSourceString(t *testing.T) {
	if SrcL3.String() != "L3" || SrcMemRemote.String() != "remote DRAM" {
		t.Error("Source.String mismatch")
	}
}

func TestCoreAccessors(t *testing.T) {
	core, _ := testCore(t, 0)
	if core.FreqHz() != 2e9 {
		t.Errorf("FreqHz = %g", core.FreqHz())
	}
	if got := core.TimeForCycles(2_000_000_000); got != sim.Second {
		t.Errorf("TimeForCycles(freq) = %v, want 1s", got)
	}
}

func TestStoreHitsInLowerLevels(t *testing.T) {
	core, fm := testCore(t, 0)
	addr := uintptr(0x50000)
	core.Load(0, addr) // line now in L1/L2/L3

	// L1 hit store: no memory traffic.
	fm.accesses = nil
	core.Store(100*sim.Nanosecond, addr)
	if len(fm.accesses) != 0 {
		t.Errorf("L1-hit store issued traffic: %v", fm.accesses)
	}

	// Evict from L1 only by filling its sets, keeping L2 resident: then a
	// store must hit L2 and issue no memory write.
	for i := 0; i < 32*1024/64*2; i++ {
		core.Load(sim.Time(i)*sim.Microsecond, uintptr(0x900000+i*64))
	}
	if core.L1().Contains(addr) {
		t.Skip("line survived the L1 sweep; set mapping kept it resident")
	}
	if !core.L2().Contains(addr) && !core.l3.Contains(addr) {
		t.Skip("line evicted beyond L2/L3 by the sweep")
	}
	fm.accesses = nil
	core.Store(200*sim.Microsecond, addr)
	for _, k := range fm.accesses {
		if k == mem.Write {
			t.Error("L2/L3-resident store issued a write-allocate memory fill")
		}
	}
}

func TestDirtyL1EvictionWritesBack(t *testing.T) {
	core, fm := testCore(t, 0)
	// Dirty a line, then force its eviction from every level by sweeping a
	// working set larger than L3.
	core.Store(0, 0x40)
	fm.accesses = nil
	for i := 0; i < (2<<20)/64*2; i++ {
		core.Load(sim.Time(i)*sim.Microsecond, uintptr(0x4000000+i*64))
	}
	var writebacks int
	for _, k := range fm.accesses {
		if k == mem.Writeback {
			writebacks++
		}
	}
	if writebacks == 0 {
		t.Error("dirty line eviction produced no writeback traffic")
	}
}

func TestNewDVFSClampsArguments(t *testing.T) {
	d := NewDVFS(-0.5, -1)
	d.SetEnabled(true)
	if f := d.FactorAt(150 * sim.Microsecond); f != 1 {
		t.Errorf("clamped low factor = %g, want 1 (invalid input)", f)
	}
	var nilD *DVFS
	nilD.SetEnabled(true) // must not panic
}
