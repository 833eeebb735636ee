package bench

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/quartz-emu/quartz/internal/cache"
	"github.com/quartz-emu/quartz/internal/core"
	"github.com/quartz-emu/quartz/internal/machine"
	"github.com/quartz-emu/quartz/internal/mem"
	"github.com/quartz-emu/quartz/internal/sim"
	"github.com/quartz-emu/quartz/internal/simos"
	"github.com/quartz-emu/quartz/internal/stats"
)

// testLines overflows every preset L3 several times (64 MiB working set).
const testLines = 1 << 20

func quickQuartz(nvmNS float64) core.Config {
	return core.Config{
		NVMLatency: sim.FromNanos(nvmNS),
		MaxEpoch:   sim.Millisecond,
		MinEpoch:   20 * sim.Microsecond,
		InitCycles: 1,
	}
}

func TestMemLatMeasuresNativeLatency(t *testing.T) {
	env, err := NewEnv(EnvConfig{Preset: machine.XeonE5_2660v2, Mode: Native})
	if err != nil {
		t.Fatal(err)
	}
	ml, err := BuildMemLat(env.Proc, MemLatConfig{Lines: testLines, Chains: 1, Iters: 50_000, Node: env.AllocNode(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	per := timeMemLat(t, env, ml) / 50_000
	local := machine.PresetConfig(machine.XeonE5_2660v2).LocalLat
	if rel := stats.RelErr(per.Nanoseconds(), local.Nanoseconds()); rel > 0.02 {
		t.Errorf("native MemLat latency %v, want ~%v (%.2f%% off)", per, local, rel*100)
	}
	var loads int64
	for _, s := range env.Mach.Sockets() {
		for _, c := range s.Cores {
			st := c.L1().Stats()
			loads += st.Hits + st.Misses
		}
	}
	if loads != 50_000 {
		t.Errorf("L1 accesses = %d, want 50000", loads)
	}
}

// timeMemLat runs ml on env's main thread and reports the settled window.
func timeMemLat(t *testing.T, env *Env, ml *MemLat) sim.Time {
	t.Helper()
	var ct sim.Time
	if err := env.Run(func(e *Env, th *simos.Thread) {
		start := th.Now()
		ml.Run(th)
		ct = th.SettledNow() - start
	}); err != nil {
		t.Fatal(err)
	}
	return ct
}

func TestMemLatMeasuresPhysicalRemoteLatency(t *testing.T) {
	env, err := NewEnv(EnvConfig{Preset: machine.XeonE5_2660v2, Mode: PhysicalRemote})
	if err != nil {
		t.Fatal(err)
	}
	ml, err := BuildMemLat(env.Proc, MemLatConfig{Lines: testLines, Chains: 1, Iters: 50_000, Node: env.AllocNode(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	per := timeMemLat(t, env, ml) / 50_000
	remote := machine.PresetConfig(machine.XeonE5_2660v2).RemoteLat
	if rel := stats.RelErr(per.Nanoseconds(), remote.Nanoseconds()); rel > 0.02 {
		t.Errorf("remote MemLat latency %v, want ~%v (%.2f%% off)", per, remote, rel*100)
	}
}

func TestMemLatChainsOverlap(t *testing.T) {
	// With 4 independent chains the per-iteration time must stay near one
	// access latency, not four (MLP).
	runChains := func(chains int) sim.Time {
		env, err := NewEnv(EnvConfig{Preset: machine.XeonE5_2660v2, Mode: Native})
		if err != nil {
			t.Fatal(err)
		}
		ml, err := BuildMemLat(env.Proc, MemLatConfig{Lines: testLines / 4, Chains: chains, Iters: 30_000, Node: 0, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return timeMemLat(t, env, ml) / 30_000
	}
	one := runChains(1)
	four := runChains(4)
	if four > one*3/2 {
		t.Errorf("4-chain per-iteration %v vs 1-chain %v: chains are not overlapping", four, one)
	}
}

// TestMemLatEmulationErrorAcrossMLP is Fig. 11 at test scale: the emulation
// error between Conf_1 (Quartz emulating remote latency) and Conf_2
// (physically remote) stays small across parallelism degrees.
func TestMemLatEmulationErrorAcrossMLP(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config validation is slow")
	}
	const iters = 40_000
	for _, chains := range []int{1, 3, 8} {
		cfg := MemLatConfig{Lines: testLines / 2, Chains: chains, Iters: iters, Seed: 9}

		phys, err := NewEnv(EnvConfig{Preset: machine.XeonE5_2660v2, Mode: PhysicalRemote})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Node = phys.AllocNode()
		mlP, err := BuildMemLat(phys.Proc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctPhys := timeMemLat(t, phys, mlP)

		emu, err := NewEnv(EnvConfig{
			Preset: machine.XeonE5_2660v2, Mode: Emulated,
			Quartz: quickQuartz(RemoteLatNS(machine.XeonE5_2660v2)),
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Node = emu.AllocNode()
		mlE, err := BuildMemLat(emu.Proc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctEmu := timeMemLat(t, emu, mlE)

		rel := stats.RelErr(float64(ctEmu), float64(ctPhys))
		t.Logf("chains=%d: physical %v, emulated %v, error %.2f%%", chains, ctPhys, ctEmu, rel*100)
		// The error grows with MLP because Eq. 2 scales the loaded
		// (queueing-inflated) stall time by the latency ratio — the §6
		// "loaded latency" limitation. The paper's overall band is 0.2-9%.
		if rel > 0.09 {
			t.Errorf("chains=%d: emulation error %.2f%% > 9%%", chains, rel*100)
		}
	}
}

func TestMultiThreadedDelayPropagation(t *testing.T) {
	if testing.Short() {
		t.Skip("multithreaded validation is slow")
	}
	// Fig. 13's essence: with contended critical sections, propagating
	// delays at lock release (small min epoch) tracks the physical run;
	// NOT propagating (min = max epoch) underestimates the completion
	// time, and increasingly so.
	mtCfg := MTConfig{Threads: 4, Sections: 400, CSDur: 60, OutDur: 0, Lines: testLines / 4, Seed: 3}

	run := func(mode Mode, quartz core.Config) sim.Time {
		env, err := NewEnv(EnvConfig{
			Preset: machine.XeonE5_2660v2, Mode: mode, Quartz: quartz,
			Lookahead: 2 * sim.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := mtCfg
		cfg.Node = env.AllocNode()
		var res MTResult
		if err := env.Run(func(e *Env, th *simos.Thread) {
			var rerr error
			res, rerr = RunMultiThreaded(e, th, cfg)
			if rerr != nil {
				th.Failf("%v", rerr)
			}
		}); err != nil {
			t.Fatal(err)
		}
		return res.CT
	}

	physical := run(PhysicalRemote, core.Config{})

	good := quickQuartz(RemoteLatNS(machine.XeonE5_2660v2))
	good.MinEpoch = 10 * sim.Microsecond
	withProp := run(Emulated, good)

	bad := quickQuartz(RemoteLatNS(machine.XeonE5_2660v2))
	bad.MinEpoch = 10 * sim.Millisecond
	bad.MaxEpoch = 10 * sim.Millisecond // min == max: no sync epochs (Fig. 13 light-blue line)
	noProp := run(Emulated, bad)

	errProp := stats.RelErr(float64(withProp), float64(physical))
	errNoProp := stats.RelErr(float64(noProp), float64(physical))
	t.Logf("physical %v, propagated %v (%.1f%%), unpropagated %v (%.1f%%)",
		physical, withProp, errProp*100, noProp, errNoProp*100)
	if errProp > 0.08 {
		t.Errorf("with delay propagation error %.1f%% > 8%%", errProp*100)
	}
	if errNoProp < errProp {
		t.Errorf("disabling propagation improved accuracy (%.1f%% vs %.1f%%); expected it to hurt", errNoProp*100, errProp*100)
	}
	if noProp >= physical {
		t.Errorf("unpropagated run %v should underestimate the physical %v (overlapped critical sections)", noProp, physical)
	}
}

func TestMultiLatPatternInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("two-memory validation is slow")
	}
	// §4.6: completion time must match Num*lat sums regardless of the
	// access pattern.
	const nvmNS = 400
	for _, burst := range []struct{ d, n int }{{2000, 1000}, {200, 100}} {
		env, err := NewEnv(EnvConfig{Preset: machine.XeonE5_2650v3, Mode: Emulated,
			Quartz: func() core.Config {
				c := quickQuartz(nvmNS)
				c.TwoMemory = true
				return c
			}(),
		})
		if err != nil {
			t.Fatal(err)
		}
		mlCfg := MultiLatConfig{
			DRAMLines: 60_000, NVMLines: 30_000,
			DRAMBurst: burst.d, NVMBurst: burst.n, Seed: 17,
		}
		ml, err := BuildMultiLat(env.Proc, env.Emu, mlCfg)
		if err != nil {
			t.Fatal(err)
		}
		var res MultiLatResult
		var ct sim.Time
		if err := env.Run(func(e *Env, th *simos.Thread) {
			start := th.Now()
			res = ml.Run(th, machine.PresetConfig(machine.XeonE5_2650v3).LocalLat, sim.FromNanos(nvmNS))
			ct = th.SettledNow() - start
		}); err != nil {
			t.Fatal(err)
		}
		rel := stats.RelErr(float64(ct), float64(res.ExpectedCT))
		t.Logf("pattern %d:%d CT %v expected %v error %.2f%%", burst.d, burst.n, ct, res.ExpectedCT, rel*100)
		if rel > 0.05 {
			t.Errorf("pattern %d:%d error %.2f%% > 5%% (paper: <1.2%%)", burst.d, burst.n, rel*100)
		}
	}
}

func TestStreamBandwidthReasonable(t *testing.T) {
	env, err := NewEnv(EnvConfig{Preset: machine.XeonE5_2450, Mode: Native, Lookahead: 5 * sim.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	var res StreamResult
	if err := env.Run(func(e *Env, th *simos.Thread) {
		var rerr error
		res, rerr = RunStream(e, th, StreamConfig{Lines: 1 << 17, Threads: 4, Node: 0})
		if rerr != nil {
			th.Failf("%v", rerr)
		}
	}); err != nil {
		t.Fatal(err)
	}
	peak := machine.PresetConfig(machine.XeonE5_2450).Mem.ChannelBandwidth * 3
	t.Logf("STREAM copy: %.1f GB/s (socket peak %.1f GB/s)", res.BytesPerSec/1e9, peak/1e9)
	if res.BytesPerSec < peak*0.3 {
		t.Errorf("copy bandwidth %.1f GB/s below 30%% of peak %.1f GB/s", res.BytesPerSec/1e9, peak/1e9)
	}
	if res.BytesPerSec > peak {
		t.Errorf("copy bandwidth %.1f GB/s exceeds the physical peak %.1f GB/s", res.BytesPerSec/1e9, peak/1e9)
	}
}

// TestStreamThrottleLinearity reproduces Fig. 8's shape at test scale:
// throttled bandwidth grows linearly in the register value, then saturates.
func TestStreamThrottleLinearity(t *testing.T) {
	if testing.Short() {
		t.Skip("throttle sweep is slow")
	}
	measure := func(reg uint16) float64 {
		env, err := NewEnv(EnvConfig{Preset: machine.XeonE5_2450, Mode: Native, Lookahead: 5 * sim.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range env.Mach.Sockets() {
			if err := s.Ctrl.SetThrottle(reg); err != nil {
				t.Fatal(err)
			}
		}
		var res StreamResult
		if err := env.Run(func(e *Env, th *simos.Thread) {
			var rerr error
			res, rerr = RunStream(e, th, StreamConfig{Lines: 1 << 16, Threads: 4, Node: 0})
			if rerr != nil {
				th.Failf("%v", rerr)
			}
		}); err != nil {
			t.Fatal(err)
		}
		return res.BytesPerSec
	}
	b256 := measure(256)
	b512 := measure(512)
	b4095 := measure(4095)
	// Linear region: doubling the register about doubles the bandwidth.
	if ratio := b512 / b256; math.Abs(ratio-2) > 0.3 {
		t.Errorf("register 512/256 bandwidth ratio = %.2f, want ~2 (linear throttle)", ratio)
	}
	// Saturation: full register no better than the attainable maximum.
	if b4095 <= b512 {
		t.Errorf("bandwidth did not grow past the linear region: %g vs %g", b4095, b512)
	}
}

func TestWorkloadConfigValidation(t *testing.T) {
	if err := (MemLatConfig{}).Validate(); err == nil {
		t.Error("empty MemLatConfig accepted")
	}
	if err := (MTConfig{}).Validate(); err == nil {
		t.Error("empty MTConfig accepted")
	}
	if err := (MultiLatConfig{}).Validate(); err == nil {
		t.Error("empty MultiLatConfig accepted")
	}
	if err := (StreamConfig{}).Validate(); err == nil {
		t.Error("empty StreamConfig accepted")
	}
	// Chains index their slots with int32: longer ones must be rejected by
	// name, not wrapped.
	const tooLong = math.MaxInt32 + 1
	for _, tc := range []struct {
		field string
		err   error
	}{
		{"MemLatConfig.Lines", MemLatConfig{Lines: tooLong, Chains: 1, Iters: 1}.Validate()},
		{"MTConfig.Lines", MTConfig{Threads: 1, Sections: 1, Lines: tooLong}.Validate()},
		{"MultiLatConfig.DRAMLines", MultiLatConfig{DRAMLines: tooLong, NVMLines: 2, DRAMBurst: 1, NVMBurst: 1}.Validate()},
		{"MultiLatConfig.NVMLines", MultiLatConfig{DRAMLines: 2, NVMLines: tooLong, DRAMBurst: 1, NVMBurst: 1}.Validate()},
	} {
		if tc.err == nil {
			t.Errorf("%s = %d accepted", tc.field, tooLong)
		} else if msg := tc.err.Error(); !strings.Contains(msg, tc.field) || !strings.Contains(msg, "2147483647") {
			t.Errorf("%s = %d: error %q does not name the field and the limit", tc.field, tooLong, msg)
		}
	}
	if err := (MemLatConfig{Lines: math.MaxInt32, Chains: 1, Iters: 1}).Validate(); err != nil {
		t.Errorf("MemLatConfig.Lines at the limit rejected: %v", err)
	}
	if Native.String() == "" || Emulated.String() == "" || Mode(99).String() == "" {
		t.Error("Mode.String broken")
	}
}

func TestPermutationCycleVisitsAll(t *testing.T) {
	const n = 1000
	order := permutationCycle(n, 77)
	checkOrder(t, order, n, 77)
	if again := permutationCycle(n, 77); again != order {
		t.Error("permutationCycle rebuilt a memoized order")
	}
}

// TestPermutationCycleBuildsOnce has goroutines released together request
// the same fresh keys: every caller of a key must get the one memoized
// order, so no key is built twice and no caller holds a private copy.
func TestPermutationCycleBuildsOnce(t *testing.T) {
	const callers, keys, n = 8, 4, 1 << 16
	var got [callers][keys]*visitOrder
	start := make(chan struct{})
	var wg sync.WaitGroup
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for k := range keys {
				got[c][k] = permutationCycle(n, -1-int64(k)) // seeds no other test uses
			}
		}()
	}
	close(start)
	wg.Wait()
	for k := range keys {
		for c := 1; c < callers; c++ {
			if got[c][k] != got[0][k] {
				t.Errorf("seed %d: callers 0 and %d got different orders", -1-k, c)
			}
		}
	}
}

// TestVisitOrderWidths builds orders at every slot-width change up to
// 1<<20+1 slots and checks the width, the buffer size and every step.
func TestVisitOrderWidths(t *testing.T) {
	for _, tc := range []struct{ n, width int }{
		{2, 1}, {3, 2}, {4, 2}, {5, 3},
		{255, 8}, {256, 8}, {257, 9},
		{65535, 16}, {65536, 16}, {65537, 17},
		{1 << 20, 20}, {1<<20 + 1, 21},
	} {
		seed := int64(tc.n)
		order := buildPermutationCycle(tc.n, seed)
		if order.width != uint64(tc.width) {
			t.Errorf("n=%d: width %d, want %d", tc.n, order.width, tc.width)
		}
		if want := (tc.n*tc.width+7)/8 + 8; len(order.packed) != want {
			t.Errorf("n=%d: %d packed bytes, want %d", tc.n, len(order.packed), want)
		}
		checkOrder(t, order, tc.n, seed)
	}
}

// TestVisitOrderSlots writes an all-ones slot into zeros and a zero slot
// into all ones at every position of a 16-slot order, for every width up
// to 31, and checks that only that position changed. Odd widths start
// positions at every bit offset within a byte.
func TestVisitOrderSlots(t *testing.T) {
	const n = 16
	for width := uint64(1); width <= 31; width++ {
		packed, mask := make([]byte, (n*width+7)/8+8), uint64(1)<<width-1
		fill := func(v uint64) {
			for i := uint64(0); i < n; i++ {
				setSlot(packed, i*width, mask, v)
			}
		}
		for _, bg := range []uint64{0, mask} {
			fill(bg)
			for i := uint64(0); i < n; i++ {
				setSlot(packed, i*width, mask, mask^bg)
				for k := uint64(0); k < n; k++ {
					want := bg
					if k == i {
						want = mask ^ bg
					}
					if got := slotAt(packed, k*width, mask); got != want {
						t.Fatalf("width %d, background %#x, position %d set: position %d reads %#x, want %#x", width, bg, i, k, got, want)
					}
				}
				setSlot(packed, i*width, mask, bg)
			}
		}
	}
}

// checkOrder walks order with its cursor next to the reference successor
// chase from slot 0 over the same (n, seed) shuffle: every step must agree,
// no slot may repeat within n steps, and then the cursor must wrap to 0.
func checkOrder(t *testing.T, order *visitOrder, n int, seed int64) {
	t.Helper()
	cur := order.cursor()
	next := successorCycle(n, seed)
	seen := make([]bool, n)
	want := int32(0)
	for k := 0; k < n; k++ {
		slot := cur.next()
		if slot != uintptr(want) {
			t.Fatalf("n=%d seed=%d: step %d visits %d, successor chase visits %d", n, seed, k, slot, want)
		}
		if seen[slot] {
			t.Fatalf("n=%d seed=%d: slot %d listed twice (step %d)", n, seed, slot, k)
		}
		seen[slot] = true
		want = next[want]
	}
	if want != 0 {
		t.Fatalf("n=%d seed=%d: successor chase did not close after %d steps", n, seed, n)
	}
	if slot := cur.next(); slot != 0 {
		t.Fatalf("n=%d seed=%d: cursor wrapped to %d, want 0", n, seed, slot)
	}
}

// successorCycle is the reference chain construction: the same shuffle,
// linked into a successor array (next[s] is the slot after s), which is the
// pointer structure the simulated program chases.
func successorCycle(n int, seed int64) []int32 {
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	x := uint64(seed)*2862933555777941757 + 3037000493
	for i := n - 1; i > 0; i-- {
		x = x*6364136223846793005 + 1442695040888963407
		j := int((x >> 11) % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	next := make([]int32, n)
	for i := 0; i < n; i++ {
		next[perm[i]] = perm[(i+1)%n]
	}
	return next
}

// FuzzPermutationOrder checks the packed visit order against the reference
// successor chase: step k of its cursor is the slot the successor chase
// from 0 reaches after k steps, for every k, and it names every slot once.
func FuzzPermutationOrder(f *testing.F) {
	for _, n := range []int{2, 3, 1000, 4096} {
		f.Add(n, int64(n)*31+7)
	}
	f.Fuzz(func(t *testing.T, n int, seed int64) {
		n = 2 + int(uint(n)%(1<<16-1)) // [2, 1<<16]
		checkOrder(t, buildPermutationCycle(n, seed), n, seed)
	})
}

// simState is everything a chase leaves behind in the simulated machine:
// the completion time, the emulator's statistics and every cache level's
// and memory controller's counters.
type simState struct {
	CT    sim.Time
	Core  core.Stats
	L1L2  []cache.Stats
	L3    []cache.Stats
	Ctrls []mem.Stats
}

func captureState(env *Env, ct sim.Time) simState {
	s := simState{CT: ct}
	if env.Emu != nil {
		s.Core = env.Emu.Stats()
	}
	for _, c := range env.Mach.Cores() {
		s.L1L2 = append(s.L1L2, c.L1().Stats(), c.L2().Stats())
	}
	for _, sock := range env.Mach.Sockets() {
		s.L3 = append(s.L3, sock.L3.Stats())
		s.Ctrls = append(s.Ctrls, sock.Ctrl.Stats())
	}
	return s
}

// TestChaseKernelsMatchSuccessorChase runs each chase kernel next to a
// reference loop that steps a successor array (cur = next[cur]) on an
// identically built environment. The simulated machine must end in the
// same state. The shapes wrap their chains, so the order's wrap index is
// exercised too.
func TestChaseKernelsMatchSuccessorChase(t *testing.T) {
	const lines = 64
	// newEnv builds a Conf_1 Sandy Bridge, or a two-memory Haswell (Sandy
	// Bridge lacks the counters two-memory mode reads). Its caches hold
	// fewer lines than a chain, so hits and misses depend on the order the
	// lines are visited in, not only on how many visits there are.
	newEnv := func(two bool) *Env {
		q := quickQuartz(400)
		q.TwoMemory = two
		preset := machine.XeonE5_2450
		if two {
			preset = machine.XeonE5_2650v3
		}
		mc := machine.PresetConfig(preset)
		mc.L1.SizeBytes, mc.L1.Ways = 16*64, 4
		mc.L2.SizeBytes, mc.L2.Ways = 32*64, 4
		mc.L3.SizeBytes, mc.L3.Ways = 64*64, 8
		env, err := NewEnv(EnvConfig{Machine: &mc, Mode: Emulated, Quartz: q, Lookahead: 2 * sim.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		return env
	}
	check := func(name string, got, want simState) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: kernel ended in\n%+v\nreference ended in\n%+v", name, got, want)
		}
	}
	// measure runs body as the main thread, takes the completion time it
	// reports, and closes the epoch before the statistics are read.
	measure := func(env *Env, body func(th *simos.Thread) sim.Time) simState {
		var ct sim.Time
		if err := env.Run(func(e *Env, th *simos.Thread) {
			ct = body(th)
			th.SettledNow()
		}); err != nil {
			t.Fatal(err)
		}
		return captureState(env, ct)
	}

	for _, chains := range []int{1, 4} {
		cfg := MemLatConfig{Lines: lines, Chains: chains, Iters: 3*lines + 5, Seed: 21}
		env := newEnv(false)
		ml, err := BuildMemLat(env.Proc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := measure(env, func(th *simos.Thread) sim.Time {
			start := th.Now()
			ml.Run(th)
			return th.Now() - start
		})

		ref := newEnv(false)
		rl, err := BuildMemLat(ref.Proc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := measure(ref, func(th *simos.Thread) sim.Time {
			start := th.Now()
			next := make([][]int32, chains)
			cur := make([]int32, chains)
			for c := range next {
				next[c] = successorCycle(lines, cfg.Seed+int64(c)*7919)
			}
			for i := 0; i < cfg.Iters; i++ {
				for c := range cur {
					rl.batch[c] = rl.bases[c] + uintptr(cur[c])*64
				}
				if chains == 1 {
					th.Load(rl.batch[0])
				} else {
					th.LoadGroup(rl.batch)
				}
				for c := range cur {
					cur[c] = next[c][cur[c]]
				}
			}
			return th.Now() - start
		})
		check(fmt.Sprintf("MemLat %d chains", chains), got, want)
	}

	mt := MTConfig{Threads: 3, Sections: 4, CSDur: 10, OutDur: 15, Lines: lines, Seed: 5}
	if mt.Sections*(mt.CSDur+mt.OutDur) <= mt.Lines {
		t.Fatal("MT shape does not wrap its chains")
	}
	env := newEnv(false)
	got := measure(env, func(th *simos.Thread) sim.Time {
		res, err := RunMultiThreaded(env, th, mt)
		if err != nil {
			th.Failf("%v", err)
		}
		return res.CT
	})
	ref := newEnv(false)
	want := measure(ref, func(th *simos.Thread) sim.Time { return referenceMultiThreaded(ref, th, mt) })
	check("MultiThreaded", got, want)

	mlCfg := MultiLatConfig{DRAMLines: 300, NVMLines: 200, DRAMBurst: 7, NVMBurst: 5, Seed: 13}
	env = newEnv(true)
	mlat, err := BuildMultiLat(env.Proc, env.Emu, mlCfg)
	if err != nil {
		t.Fatal(err)
	}
	got = measure(env, func(th *simos.Thread) sim.Time {
		start := th.Now()
		mlat.Run(th, 0, 0)
		return th.Now() - start
	})
	ref = newEnv(true)
	rlat, err := BuildMultiLat(ref.Proc, ref.Emu, mlCfg)
	if err != nil {
		t.Fatal(err)
	}
	want = measure(ref, func(th *simos.Thread) sim.Time {
		start := th.Now()
		nextD := successorCycle(mlCfg.DRAMLines, mlCfg.Seed)
		nextN := successorCycle(mlCfg.NVMLines, mlCfg.Seed+65537)
		remD, remN := mlCfg.DRAMLines, mlCfg.NVMLines
		curD, curN := int32(0), int32(0)
		for remD > 0 || remN > 0 {
			for i := 0; i < mlCfg.DRAMBurst && remD > 0; i++ {
				th.Load(rlat.baseDRAM + uintptr(curD)*64)
				curD = nextD[curD]
				remD--
			}
			for i := 0; i < mlCfg.NVMBurst && remN > 0; i++ {
				th.Load(rlat.baseNVM + uintptr(curN)*64)
				curN = nextN[curN]
				remN--
			}
		}
		return th.Now() - start
	})
	check("MultiLat", got, want)
}

// referenceMultiThreaded is RunMultiThreaded with each worker stepping a
// successor array, and returns the completion time.
func referenceMultiThreaded(env *Env, main *simos.Thread, cfg MTConfig) sim.Time {
	type worker struct {
		next []int32
		base uintptr
	}
	workers := make([]worker, cfg.Threads)
	for i := range workers {
		base, err := env.Proc.MallocOnNode(uintptr(cfg.Lines)*64, cfg.Node)
		if err != nil {
			main.Failf("%v", err)
		}
		workers[i] = worker{next: successorCycle(cfg.Lines, cfg.Seed+int64(i)*104729), base: base}
	}
	lock := env.Proc.NewMutex("mt-lock")
	startMu := env.Proc.NewMutex("mt-start-mu")
	arrivedCv := env.Proc.NewCond("mt-arrived-cv")
	goCv := env.Proc.NewCond("mt-go-cv")
	arrived := 0
	started := false
	threads := make([]*simos.Thread, 0, cfg.Threads)
	for i := range workers {
		w := workers[i]
		th, err := main.CreateThread(fmt.Sprintf("mt-%d", i), func(t *simos.Thread) {
			startMu.Lock(t)
			arrived++
			arrivedCv.Signal(t)
			for !started {
				goCv.Wait(t, startMu)
			}
			startMu.Unlock(t)
			cur := int32(0)
			chase := func(iters int) {
				for j := 0; j < iters; j++ {
					t.Load(w.base + uintptr(cur)*64)
					cur = w.next[cur]
				}
			}
			for k := 0; k < cfg.Sections; k++ {
				lock.Lock(t)
				chase(cfg.CSDur)
				lock.Unlock(t)
				chase(cfg.OutDur)
			}
		})
		if err != nil {
			main.Failf("%v", err)
		}
		threads = append(threads, th)
	}
	startMu.Lock(main)
	for arrived < cfg.Threads {
		arrivedCv.Wait(main, startMu)
	}
	start := main.SettledNow()
	started = true
	goCv.Broadcast(main)
	startMu.Unlock(main)
	var end sim.Time
	for _, th := range threads {
		main.Join(th)
		end = max(end, th.Now())
	}
	return max(end, main.Now()) - start
}

// TestMemLatInjectionMetamorphic checks two properties of the delay model
// through MemLat on Conf_1: emulating NVM at exactly the DRAM latency
// injects nothing, and raising the NVM latency never injects less on the
// same chain and seed.
func TestMemLatInjectionMetamorphic(t *testing.T) {
	cfg := MemLatConfig{Lines: 1 << 16, Chains: 1, Iters: 20_000, Seed: 3}
	injected := func(nvm sim.Time) sim.Time {
		q := quickQuartz(0)
		q.NVMLatency = nvm
		env, err := NewEnv(EnvConfig{Preset: machine.XeonE5_2450, Mode: Emulated, Quartz: q})
		if err != nil {
			t.Fatal(err)
		}
		ml, err := BuildMemLat(env.Proc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := env.Run(func(e *Env, th *simos.Thread) {
			ml.Run(th)
			th.SettledNow()
		}); err != nil {
			t.Fatal(err)
		}
		return env.Emu.Stats().Injected
	}
	probe, err := NewEnv(EnvConfig{Preset: machine.XeonE5_2450, Mode: Emulated, Quartz: quickQuartz(0)})
	if err != nil {
		t.Fatal(err)
	}
	dram := probe.Emu.DRAMLatency()
	if got := injected(dram); got != 0 {
		t.Errorf("NVM latency = DRAM latency %v injected %v, want 0", dram, got)
	}
	prev := sim.Time(0)
	for _, extra := range []float64{50, 200, 600} {
		nvm := dram + sim.FromNanos(extra)
		got := injected(nvm)
		t.Logf("NVM latency %v: injected %v", nvm, got)
		if got < prev {
			t.Errorf("NVM latency %v injected %v, less than %v at a lower latency", nvm, got, prev)
		}
		prev = got
	}
	if prev == 0 {
		t.Error("NVM latency DRAM+600ns injected nothing")
	}
}
