package core

import (
	"math"
	"strings"
	"testing"

	"github.com/quartz-emu/quartz/internal/machine"
	"github.com/quartz-emu/quartz/internal/perf"
	"github.com/quartz-emu/quartz/internal/sim"
	"github.com/quartz-emu/quartz/internal/simos"
)

// chase holds a pointer-chasing working set larger than the L3 cache, so
// every access is a demand miss — the MemLat access pattern.
type chase struct {
	next []int32
	base uintptr
}

// buildChase creates a single random permutation cycle of n cache lines on
// the given NUMA node.
func buildChase(t *testing.T, p *simos.Process, node int, n int, seed int64) *chase {
	t.Helper()
	base, err := p.MallocOnNode(uintptr(n)*64, node)
	if err != nil {
		t.Fatal(err)
	}
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	x := uint64(seed)
	for i := n - 1; i > 0; i-- {
		x = x*6364136223846793005 + 1442695040888963407
		j := int(x % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	// Convert the permutation into one full cycle (Sattolo's algorithm on
	// the already-shuffled order).
	next := make([]int32, n)
	for i := 0; i < n; i++ {
		next[perm[i]] = perm[(i+1)%n]
	}
	return &chase{next: next, base: base}
}

// run chases iters pointers starting from slot 0 and returns per-access
// latency.
func (c *chase) run(th *simos.Thread, iters int) sim.Time {
	cur := int32(0)
	start := th.Now()
	for i := 0; i < iters; i++ {
		th.Load(c.base + uintptr(cur)*64)
		cur = c.next[cur]
	}
	return (th.Now() - start) / sim.Time(iters)
}

// chaseLines is sized to overflow the 20-25MB preset L3s several times.
const chaseLines = 1 << 20 // 64 MiB working set

func newMachineProc(t *testing.T, preset machine.Preset, opts simos.Options) (*machine.Machine, *simos.Process) {
	t.Helper()
	m, err := machine.NewPreset(preset)
	if err != nil {
		t.Fatal(err)
	}
	p, err := simos.NewProcess(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m, p
}

func fastCfg(nvmNS float64) Config {
	return Config{
		NVMLatency: sim.FromNanos(nvmNS),
		MaxEpoch:   sim.Millisecond,
		InitCycles: 1, // keep unit tests fast; §3.2 cost measured in benches
	}
}

func TestAttachValidation(t *testing.T) {
	if _, err := Attach(nil, Config{}); err == nil {
		t.Error("Attach(nil) succeeded")
	}

	_, p := newMachineProc(t, machine.XeonE5_2660v2, simos.DefaultOptions())
	if _, err := Attach(p, Config{NVMLatency: -1}); err == nil {
		t.Error("negative NVM latency accepted")
	}
	if _, err := Attach(p, Config{NVMLatency: sim.FromNanos(10)}); err == nil {
		t.Error("NVM latency below DRAM accepted")
	}
	if _, err := Attach(p, Config{NVMLatency: sim.FromNanos(500), MinEpoch: sim.Second, MaxEpoch: sim.Millisecond}); err == nil {
		t.Error("MinEpoch > MaxEpoch accepted")
	}
	nvm := sim.FromNanos(500)
	for name, cfg := range map[string]Config{
		"negative DRAM latency":  {NVMLatency: nvm, DRAMLatency: -sim.Nanosecond},
		"negative pflush delay":  {NVMLatency: nvm, WriteLatency: -sim.Nanosecond},
		"NaN bandwidth":          {NVMLatency: nvm, NVMBandwidth: math.NaN()},
		"NaN write bandwidth":    {NVMLatency: nvm, NVMWriteBandwidth: math.NaN()},
		"NaN write curve entry":  {NVMLatency: nvm, WriteBandwidthByThreads: []float64{math.NaN()}},
		"FromNanos(NaN) latency": {NVMLatency: math.MinInt64},
	} {
		if _, err := Attach(p, cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestAttachRejectsDVFS(t *testing.T) {
	m, p := newMachineProc(t, machine.XeonE5_2660v2, simos.DefaultOptions())
	m.DVFS().SetEnabled(true)
	if _, err := Attach(p, fastCfg(500)); err == nil || !strings.Contains(err.Error(), "DVFS") {
		t.Errorf("Attach with DVFS = %v, want DVFS error", err)
	}
}

// TestAttachEnablesEveryCoreCounters: a core's PMC bank counts nothing
// until Attach programs it, and after Attach every core of every preset
// counts, not only the cores the process may run on.
func TestAttachEnablesEveryCoreCounters(t *testing.T) {
	for _, preset := range machine.Presets() {
		m, p := newMachineProc(t, preset, simos.Options{AllowedSockets: []int{0}, DefaultNode: -1})
		for _, c := range m.Cores() {
			c.Counters().CountL3Hit()
		}
		if _, err := Attach(p, fastCfg(500)); err != nil {
			t.Fatalf("%v: %v", preset, err)
		}
		for i, c := range m.Cores() {
			c.Counters().CountL3Hit()
			if got, err := c.Counters().Read(perf.EventL3Hit); err != nil || got != 1 {
				t.Fatalf("%v core %d: L3 hits = %d (%v), want 1 (one counted after Attach)", preset, i, got, err)
			}
		}
	}
}

func TestAttachTwoMemoryValidation(t *testing.T) {
	// Sandy Bridge has no local/remote miss split (Table 1).
	_, p := newMachineProc(t, machine.XeonE5_2450, simos.Options{AllowedSockets: []int{0}, DefaultNode: -1})
	cfg := fastCfg(500)
	cfg.TwoMemory = true
	if _, err := Attach(p, cfg); err == nil {
		t.Error("two-memory mode on Sandy Bridge accepted")
	}

	// Unbound threads violate the virtual topology.
	_, p2 := newMachineProc(t, machine.XeonE5_2660v2, simos.DefaultOptions())
	if _, err := Attach(p2, cfg); err == nil {
		t.Error("two-memory mode without socket binding accepted")
	}

	_, p3 := newMachineProc(t, machine.XeonE5_2660v2, simos.Options{AllowedSockets: []int{0}, DefaultNode: -1})
	if _, err := Attach(p3, cfg); err != nil {
		t.Errorf("valid two-memory attach failed: %v", err)
	}
}

func TestRunRequiresAttachOnce(t *testing.T) {
	_, p := newMachineProc(t, machine.XeonE5_2660v2, simos.DefaultOptions())
	e, err := Attach(p, fastCfg(200))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(func(th *simos.Thread) {}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(func(th *simos.Thread) {}); err == nil {
		t.Error("second Run succeeded")
	}
}

// TestSingleThreadedEmulationAccuracy is the paper's core validation (§4.3):
// run a latency-bound pointer chase under Quartz on local memory emulating
// the remote latency (Conf_1) and compare against the same chase physically
// on remote memory without the emulator (Conf_2).
func TestSingleThreadedEmulationAccuracy(t *testing.T) {
	const iters = 120_000

	// Conf_2: physical remote memory, no emulation.
	_, p2 := newMachineProc(t, machine.XeonE5_2660v2, simos.Options{AllowedSockets: []int{0}, DefaultNode: -1})
	var physical sim.Time
	ch2 := buildChase(t, p2, 1, chaseLines, 42)
	if err := p2.Run(func(th *simos.Thread) {
		physical = ch2.run(th, iters)
	}); err != nil {
		t.Fatal(err)
	}

	// Conf_1: local memory under Quartz emulating the remote latency.
	m1, p1 := newMachineProc(t, machine.XeonE5_2660v2, simos.Options{AllowedSockets: []int{0}, DefaultNode: -1})
	cfg := fastCfg(m1.Config().RemoteLat.Nanoseconds())
	e, err := Attach(p1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ch1 := buildChase(t, p1, 0, chaseLines, 42)
	var emulated sim.Time
	if err := e.Run(func(th *simos.Thread) {
		emulated = ch1.run(th, iters)
	}); err != nil {
		t.Fatal(err)
	}

	relErr := math.Abs(float64(emulated-physical)) / float64(physical)
	t.Logf("physical %.1fns, emulated %.1fns, error %.2f%%", physical.Nanoseconds(), emulated.Nanoseconds(), relErr*100)
	if relErr > 0.05 {
		t.Errorf("emulation error %.2f%% exceeds 5%% (Ivy Bridge band is <2%%)", relErr*100)
	}

	st := e.Stats()
	if st.Epochs == 0 || st.Injected == 0 {
		t.Errorf("stats = %+v: expected epochs and injected delay", st)
	}
}

func TestEmulatedLatencySweep(t *testing.T) {
	// Fig. 12's property at unit-test scale: the chase-measured latency
	// must track the emulated target across a range.
	for _, targetNS := range []float64{200, 600, 1000} {
		m, p := newMachineProc(t, machine.XeonE5_2660v2, simos.Options{AllowedSockets: []int{0}, DefaultNode: -1})
		_ = m
		e, err := Attach(p, fastCfg(targetNS))
		if err != nil {
			t.Fatal(err)
		}
		ch := buildChase(t, p, 0, chaseLines, 7)
		var got sim.Time
		if err := e.Run(func(th *simos.Thread) {
			const iters = 60_000
			start := th.Now()
			cur := int32(0)
			for i := 0; i < iters; i++ {
				th.Load(ch.base + uintptr(cur)*64)
				cur = ch.next[cur]
			}
			got = (th.SettledNow() - start) / iters
		}); err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(got.Nanoseconds()-targetNS) / targetNS
		t.Logf("target %.0fns -> measured %.1fns (%.2f%%)", targetNS, got.Nanoseconds(), rel*100)
		if rel > 0.05 {
			t.Errorf("target %.0fns: measured %.1fns, error %.2f%% > 5%%", targetNS, got.Nanoseconds(), rel*100)
		}
	}
}

func TestInjectionOffComputesButDoesNotInject(t *testing.T) {
	m, p := newMachineProc(t, machine.XeonE5_2660v2, simos.Options{AllowedSockets: []int{0}, DefaultNode: -1})

	cfg := fastCfg(800)
	cfg.InjectionOff = true
	e, err := Attach(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ch := buildChase(t, p, 0, chaseLines, 3)
	var perAccess sim.Time
	if err := e.Run(func(th *simos.Thread) {
		perAccess = ch.run(th, 50_000)
	}); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Injected != 0 {
		t.Errorf("switched-off mode injected %v", st.Injected)
	}
	if st.WouldInject == 0 {
		t.Error("switched-off mode computed no delay")
	}
	// The run must stay near native local latency (< ~10% overhead, paper
	// reports <4% for tuned epochs).
	local := m.Config().LocalLat
	if overhead := float64(perAccess-local) / float64(local); overhead > 0.10 {
		t.Errorf("switched-off overhead %.1f%%, want small", overhead*100)
	}
}

func TestOverheadCarryOver(t *testing.T) {
	// A cache-resident workload yields zero delay, so epoch overhead can
	// never be amortized and must accumulate as carry.
	_, p := newMachineProc(t, machine.XeonE5_2660v2, simos.Options{AllowedSockets: []int{0}, DefaultNode: -1})
	cfg := fastCfg(500)
	e, err := Attach(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(func(th *simos.Thread) {
		base, _ := p.Malloc(4096)
		for i := 0; i < 600; i++ {
			th.Load(base) // L1-resident
			th.Compute(40_000)
		}
	}); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Epochs == 0 {
		t.Fatal("no epochs closed")
	}
	if st.Unamortized == 0 {
		t.Error("cache-resident run fully amortized overhead; carry must remain")
	}
	if st.Amortized {
		t.Error("stats claim amortization despite carry")
	}
	if !strings.Contains(st.Suggestion(), "NOT amortized") {
		t.Errorf("suggestion %q does not flag unamortized overhead", st.Suggestion())
	}
}

func TestSyncEpochsCloseOnUnlock(t *testing.T) {
	_, p := newMachineProc(t, machine.XeonE5_2660v2, simos.Options{AllowedSockets: []int{0}, DefaultNode: -1})
	cfg := fastCfg(500)
	cfg.MinEpoch = 10 * sim.Microsecond
	e, err := Attach(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mu := p.NewMutex("m")
	ch := buildChase(t, p, 0, chaseLines, 9)
	if err := e.Run(func(th *simos.Thread) {
		cur := int32(0)
		for i := 0; i < 200; i++ {
			mu.Lock(th)
			for j := 0; j < 20; j++ {
				th.Load(ch.base + uintptr(cur)*64)
				cur = ch.next[cur]
			}
			mu.Unlock(th)
		}
	}); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.SyncEpochs == 0 {
		t.Errorf("no sync epochs closed despite %d unlocks: %+v", 200, st)
	}
}

func TestMinEpochSuppressesFrequentSyncEpochs(t *testing.T) {
	run := func(minEpoch sim.Time) int64 {
		_, p := newMachineProc(t, machine.XeonE5_2660v2, simos.Options{AllowedSockets: []int{0}, DefaultNode: -1})
		cfg := fastCfg(500)
		cfg.MinEpoch = minEpoch
		cfg.MaxEpoch = 10 * sim.Millisecond
		e, err := Attach(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mu := p.NewMutex("m")
		ch := buildChase(t, p, 0, chaseLines, 11)
		if err := e.Run(func(th *simos.Thread) {
			cur := int32(0)
			for i := 0; i < 300; i++ {
				mu.Lock(th)
				th.Load(ch.base + uintptr(cur)*64)
				cur = ch.next[cur]
				mu.Unlock(th)
			}
		}); err != nil {
			t.Fatal(err)
		}
		return e.Stats().SyncEpochs
	}
	small := run(100 * sim.Nanosecond)
	large := run(5 * sim.Millisecond)
	if large >= small {
		t.Errorf("sync epochs: min-epoch 5ms gave %d, 100ns gave %d; larger min must suppress", large, small)
	}
}

func TestPFlushInjectsWriteDelay(t *testing.T) {
	_, p := newMachineProc(t, machine.XeonE5_2660v2, simos.Options{AllowedSockets: []int{0}, DefaultNode: -1})
	cfg := fastCfg(500)
	cfg.WriteLatency = sim.FromNanos(700)
	e, err := Attach(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var perFlush sim.Time
	if err := e.Run(func(th *simos.Thread) {
		base, _ := e.PMalloc(1 << 20)
		const n = 100
		start := th.Now()
		for i := 0; i < n; i++ {
			addr := base + uintptr(i*64)
			th.Store(addr)
			e.PFlush(th, addr)
		}
		perFlush = (th.Now() - start) / n
	}); err != nil {
		t.Fatal(err)
	}
	if perFlush < sim.FromNanos(700) {
		t.Errorf("per-flush cost %v below the 700ns write latency", perFlush)
	}
	st := e.Stats()
	if st.Flushes != 100 {
		t.Errorf("flush count = %d, want 100", st.Flushes)
	}
}

func TestPCommitParallelizesIndependentWrites(t *testing.T) {
	// §6: clflushopt+pcommit must beat serialized pflush for independent
	// writes (e.g. initializing fields of a persistent object).
	const n = 64
	run := func(usePCommit bool) sim.Time {
		_, p := newMachineProc(t, machine.XeonE5_2660v2, simos.Options{AllowedSockets: []int{0}, DefaultNode: -1})
		cfg := fastCfg(500)
		cfg.WriteLatency = sim.FromNanos(600)
		e, err := Attach(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var elapsed sim.Time
		if err := e.Run(func(th *simos.Thread) {
			base, _ := e.PMalloc(1 << 20)
			start := th.Now()
			for i := 0; i < n; i++ {
				addr := base + uintptr(i*64)
				th.Store(addr)
				if usePCommit {
					e.PFlushOpt(th, addr)
				} else {
					e.PFlush(th, addr)
				}
			}
			if usePCommit {
				e.PCommit(th)
			}
			elapsed = th.Now() - start
		}); err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	serialized := run(false)
	parallel := run(true)
	if parallel >= serialized/4 {
		t.Errorf("pcommit path %v not clearly faster than serialized pflush %v", parallel, serialized)
	}
}

func TestPMallocPlacementSingleVsTwoMemory(t *testing.T) {
	_, p := newMachineProc(t, machine.XeonE5_2660v2, simos.Options{AllowedSockets: []int{0}, DefaultNode: -1})
	cfg := fastCfg(500)
	cfg.TwoMemory = true
	e, err := Attach(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := e.PMalloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	if p.NodeOf(addr) != 1 {
		t.Errorf("two-memory PMalloc on node %d, want 1 (remote DRAM)", p.NodeOf(addr))
	}
	if !e.IsNVM(addr) {
		t.Error("PMalloc'd address not recognized as NVM")
	}
	vol, _ := p.Malloc(4096)
	if e.IsNVM(vol) {
		t.Error("volatile malloc recognized as NVM in two-memory mode")
	}
	if e.NVMNode() != 1 {
		t.Errorf("NVMNode = %d, want 1", e.NVMNode())
	}
}

func TestTwoMemoryLeavesLocalUnchanged(t *testing.T) {
	// DRAM-only accesses under two-memory emulation must run at native
	// local latency (no injected delay).
	m, p := newMachineProc(t, machine.XeonE5_2660v2, simos.Options{AllowedSockets: []int{0}, DefaultNode: -1})
	cfg := fastCfg(500)
	cfg.TwoMemory = true
	e, err := Attach(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ch := buildChase(t, p, 0, chaseLines, 5)
	var perAccess sim.Time
	if err := e.Run(func(th *simos.Thread) {
		perAccess = ch.run(th, 50_000)
	}); err != nil {
		t.Fatal(err)
	}
	local := m.Config().LocalLat
	if rel := math.Abs(float64(perAccess-local)) / float64(local); rel > 0.05 {
		t.Errorf("local-access latency %v deviates %.1f%% from native %v", perAccess, rel*100, local)
	}
}

func TestTwoMemoryNVMLatencyEmulated(t *testing.T) {
	// NVM (remote-backed) accesses must be slowed to the target.
	const targetNS = 400
	_, p := newMachineProc(t, machine.XeonE5_2660v2, simos.Options{AllowedSockets: []int{0}, DefaultNode: -1})
	cfg := fastCfg(targetNS)
	cfg.TwoMemory = true
	e, err := Attach(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ch := buildChase(t, p, 1, chaseLines, 5) // chain in virtual NVM
	var perAccess sim.Time
	if err := e.Run(func(th *simos.Thread) {
		perAccess = ch.run(th, 50_000)
	}); err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(perAccess.Nanoseconds()-targetNS) / targetNS
	t.Logf("two-memory NVM chase: %.1fns (target %dns, %.2f%%)", perAccess.Nanoseconds(), targetNS, rel*100)
	if rel > 0.06 {
		t.Errorf("NVM latency %v deviates %.1f%% from %dns target", perAccess, rel*100, targetNS)
	}
}

func TestBandwidthThrottleApplied(t *testing.T) {
	m, p := newMachineProc(t, machine.XeonE5_2660v2, simos.Options{AllowedSockets: []int{0}, DefaultNode: -1})
	cfg := fastCfg(200)
	cfg.NVMBandwidth = 5e9
	if _, err := Attach(p, cfg); err != nil {
		t.Fatal(err)
	}
	for s, sock := range m.Sockets() {
		if bw := sock.Ctrl.EffectiveBandwidth(); math.Abs(bw-5e9)/5e9 > 0.02 {
			t.Errorf("socket %d effective bandwidth = %g, want ~5e9", s, bw)
		}
	}
}

// TestSetThrottleProgramsRegisters: Attach writes the read and write
// throttle registers of every socket it targets and of no other: every
// socket in single-memory mode, only the NVM socket in two-memory mode.
func TestSetThrottleProgramsRegisters(t *testing.T) {
	for _, two := range []bool{false, true} {
		m, p := newMachineProc(t, machine.XeonE5_2660v2, simos.Options{AllowedSockets: []int{0}, DefaultNode: -1})
		reset := m.Socket(0).Ctrl.Throttle()
		cfg := fastCfg(500)
		cfg.TwoMemory = two
		cfg.NVMBandwidth = 5e9
		if _, err := Attach(p, cfg); err != nil {
			t.Fatal(err)
		}
		for s, sock := range m.Sockets() {
			want := sock.Ctrl.RegisterForBandwidth(5e9)
			if two && s == 0 {
				want = reset
			}
			if got := sock.Ctrl.Throttle(); got != want {
				t.Errorf("two-memory=%v socket %d read register = %d, want %d", two, s, got, want)
			}
			if got := sock.Ctrl.WriteThrottle(); got != want {
				t.Errorf("two-memory=%v socket %d write register = %d, want %d", two, s, got, want)
			}
		}
	}
}

func TestStatsSuggestionNoEpochs(t *testing.T) {
	var s Stats
	if !strings.Contains(s.Suggestion(), "no epochs") {
		t.Errorf("empty-stats suggestion = %q", s.Suggestion())
	}
}

func TestEmulatorString(t *testing.T) {
	_, p := newMachineProc(t, machine.XeonE5_2660v2, simos.Options{AllowedSockets: []int{0}, DefaultNode: -1})
	e, err := Attach(p, fastCfg(500))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.String(), "PM-only") {
		t.Errorf("String() = %q", e.String())
	}
}

// machineIvy and simosOptsSocket0 are tiny helpers shared with ini_test.go.
func machineIvy() machine.Preset { return machine.XeonE5_2660v2 }

func simosOptsSocket0() simos.Options {
	return simos.Options{AllowedSockets: []int{0}, DefaultNode: -1}
}

func TestAccessorsAndPFree(t *testing.T) {
	_, p := newMachineProc(t, machine.XeonE5_2660v2, simosOptsSocket0())
	cfg := fastCfg(500)
	cfg.WriteLatency = sim.FromNanos(650)
	e, err := Attach(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.Config().NVMLatency != sim.FromNanos(500) {
		t.Errorf("Config().NVMLatency = %v", e.Config().NVMLatency)
	}
	if e.DRAMLatency() != sim.FromNanos(87) {
		t.Errorf("DRAMLatency = %v, want 87ns (Ivy local)", e.DRAMLatency())
	}
	if e.WriteLatency() != sim.FromNanos(650) {
		t.Errorf("WriteLatency = %v", e.WriteLatency())
	}
	addr, err := e.PMalloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	e.PFree(addr) // bump allocator: must not panic or corrupt state
	if !e.IsNVM(addr) {
		t.Error("single-memory mode: every address is persistent memory")
	}
}

func TestWriteLatencyDefaultsToLatencyGap(t *testing.T) {
	_, p := newMachineProc(t, machine.XeonE5_2660v2, simosOptsSocket0())
	e, err := Attach(p, fastCfg(500))
	if err != nil {
		t.Fatal(err)
	}
	if want := sim.FromNanos(500 - 87); e.WriteLatency() != want {
		t.Errorf("default WriteLatency = %v, want NVM-DRAM gap %v", e.WriteLatency(), want)
	}
}

func TestTwoMemoryPFreeRoutes(t *testing.T) {
	_, p := newMachineProc(t, machine.XeonE5_2660v2, simosOptsSocket0())
	cfg := fastCfg(400)
	cfg.TwoMemory = true
	e, err := Attach(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nvm, _ := e.PMalloc(64)
	vol, _ := p.Malloc(64)
	e.PFree(nvm)
	e.PFree(vol) // freeing volatile memory through pfree is tolerated
}
