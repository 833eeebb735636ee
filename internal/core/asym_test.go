package core

import (
	"math/rand"
	"testing"

	"github.com/quartz-emu/quartz/internal/machine"
	"github.com/quartz-emu/quartz/internal/obs"
	"github.com/quartz-emu/quartz/internal/sim"
	"github.com/quartz-emu/quartz/internal/simos"
)

// storeBuf allocates a cold buffer of n lines for store kernels.
func storeBuf(t *testing.T, p *simos.Process, n int) uintptr {
	t.Helper()
	base, err := p.MallocOnNode(uintptr(n)*64, 0)
	if err != nil {
		t.Fatal(err)
	}
	return base
}

// TestStoreModelOffIsInert is the model-equivalence gate at the unit level:
// with NVMWriteLatency == 0 the store-side model must be fully disabled — no
// store counters read, zero store fields in every ledger record, zero
// write-delay statistics, and the per-epoch close cost of the symmetric
// read-only model (the golden tables in internal/experiments pin the same
// property end-to-end, byte for byte).
func TestStoreModelOffIsInert(t *testing.T) {
	rec := obs.New(0)
	_, p := newMachineProc(t, machine.XeonE5_2660v2, simosOptsSocket0())
	cfg := fastCfg(500)
	cfg.Observer = rec
	e, err := Attach(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.asym {
		t.Fatal("store model active with NVMWriteLatency == 0")
	}
	ch := buildChase(t, p, 0, chaseLines, 11)
	base := storeBuf(t, p, 1<<14)
	if err := e.Run(func(th *simos.Thread) {
		// A store-heavy workload: the stores must leave no trace in the
		// ledger or the statistics when the model is off.
		th.StoreRun(base, 64, 1<<14)
		ch.run(th, 10_000)
	}); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.WriteDelay != 0 || st.StoreMisses != 0 {
		t.Errorf("symmetric run accumulated store statistics: WriteDelay=%v StoreMisses=%d",
			st.WriteDelay, st.StoreMisses)
	}
	for _, r := range rec.Ledger() {
		if r.Stores != 0 || r.StoreMissLocal != 0 || r.StoreMissRem != 0 || r.WriteDelay != 0 {
			t.Fatalf("record %d carries store fields in symmetric mode: %+v", r.Seq, r)
		}
	}

	// The per-close cost must grow only when the model is on: the store
	// events join the counter-read set, and a symmetric configuration pays
	// exactly the read-only cost.
	_, p2 := newMachineProc(t, machine.XeonE5_2660v2, simosOptsSocket0())
	cfgAsym := fastCfg(500)
	cfgAsym.NVMWriteLatency = sim.FromNanos(500)
	e2, err := Attach(p2, cfgAsym)
	if err != nil {
		t.Fatal(err)
	}
	if !e2.asym {
		t.Fatal("store model inactive with NVMWriteLatency > 0")
	}
	if e2.epochCostCycles <= e.epochCostCycles {
		t.Errorf("asymmetric epoch cost %d not above symmetric %d (store counters unread?)",
			e2.epochCostCycles, e.epochCostCycles)
	}
}

// TestAsymWriteDelayMatchesModel pins the write-stall term record by record:
// in single-memory mode every ledger epoch must satisfy
// WriteDelay == (StoreMissLocal + StoreMissRem) x (NVMWriteLatency - DRAM),
// the retired-store deltas must sum to exactly the stores the workload
// issued, and the per-thread statistics must agree with the ledger.
func TestAsymWriteDelayMatchesModel(t *testing.T) {
	const writeNS = 500.0
	const lines = 1 << 14
	rec := obs.New(0)
	m, p := newMachineProc(t, machine.XeonE5_2660v2, simosOptsSocket0())
	cfg := fastCfg(700)
	cfg.NVMWriteLatency = sim.FromNanos(writeNS)
	cfg.Observer = rec
	e, err := Attach(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := storeBuf(t, p, lines)
	if err := e.Run(func(th *simos.Thread) {
		th.StoreRun(base, 64, lines)
	}); err != nil {
		t.Fatal(err)
	}
	extra := sim.FromNanos(writeNS) - m.Config().LocalLat
	if extra <= 0 {
		t.Fatalf("test premise broken: write target %v not above DRAM %v",
			sim.FromNanos(writeNS), m.Config().LocalLat)
	}
	var stores, misses uint64
	var writeDelay sim.Time
	for _, r := range rec.Ledger() {
		miss := r.StoreMissLocal + r.StoreMissRem
		if want := sim.Time(float64(miss) * float64(extra)); r.WriteDelay != want {
			t.Errorf("record %d: WriteDelay = %v, want %d misses x %v = %v",
				r.Seq, r.WriteDelay, miss, extra, want)
		}
		stores += r.Stores
		misses += miss
		writeDelay += r.WriteDelay
	}
	if stores != lines {
		t.Errorf("ledger store deltas sum to %d, workload issued %d", stores, lines)
	}
	if misses == 0 {
		t.Error("cold streaming stores produced no store misses")
	}
	st := e.Stats()
	if int64(misses) != st.StoreMisses {
		t.Errorf("ledger misses %d != Stats().StoreMisses %d", misses, st.StoreMisses)
	}
	if writeDelay != st.WriteDelay {
		t.Errorf("ledger write delay %v != Stats().WriteDelay %v", writeDelay, st.WriteDelay)
	}
	if st.WriteDelay == 0 {
		t.Error("store model injected nothing for an all-miss store stream")
	}
}

// TestStoreDeltaAccountingProperty is the randomized accounting gate: under
// arbitrary interleavings of Load/Store/LoadRun/StoreRun with epoch closes
// scattered between them — on two concurrently scheduled threads — the
// epoch-by-epoch store-counter deltas must reconcile exactly with the number
// of stores the workload issued: no double counting across epoch boundaries,
// no drops at thread registration. Each thread flushes its trailing epoch
// with a settled clock read before exiting: like the real library, the
// emulator closes only the main thread's final epoch at the end of Run, so
// an exited worker's partial trailing epoch is otherwise unaccounted (this
// test found exactly that gap). Run with -race this also gates the
// store-counter plumbing for data races.
func TestStoreDeltaAccountingProperty(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rec := obs.New(0)
		_, p := newMachineProc(t, machine.XeonE5_2660v2, simosOptsSocket0())
		cfg := fastCfg(500)
		cfg.NVMWriteLatency = sim.FromNanos(600)
		cfg.MinEpoch = sim.Microsecond // let explicit closes land often
		cfg.Observer = rec
		e, err := Attach(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		const bufLines = 1 << 12
		mix := func(th *simos.Thread, base uintptr, rng *rand.Rand, ops int) int64 {
			var issued int64
			for i := 0; i < ops; i++ {
				addr := base + uintptr(rng.Intn(bufLines))*64
				n := 1 + rng.Intn(64)
				if int(addr-base)/64+n > bufLines {
					n = bufLines - int(addr-base)/64
				}
				switch rng.Intn(5) {
				case 0:
					th.Load(addr)
				case 1:
					th.Store(addr)
					issued++
				case 2:
					th.LoadRun(addr, 64, n)
				case 3:
					th.StoreRun(addr, 64, n)
					issued += int64(n)
				default:
					th.SettledNow() // epoch boundary mid-stream
				}
			}
			th.SettledNow() // flush the trailing epoch's deltas
			return issued
		}
		var mainIssued, workerIssued int64
		mainBuf := storeBuf(t, p, bufLines)
		workerBuf := storeBuf(t, p, bufLines)
		if err := e.Run(func(th *simos.Thread) {
			worker, err := th.CreateThread("acct-worker", func(wt *simos.Thread) {
				workerIssued = mix(wt, workerBuf, rand.New(rand.NewSource(seed*977)), 400)
			})
			if err != nil {
				th.Failf("%v", err)
				return
			}
			mainIssued = mix(th, mainBuf, rand.New(rand.NewSource(seed)), 400)
			th.Join(worker)
		}); err != nil {
			t.Fatal(err)
		}
		var stores uint64
		for _, r := range rec.Ledger() {
			stores += r.Stores
		}
		if total := uint64(mainIssued + workerIssued); stores != total {
			t.Errorf("seed %d: ledger store deltas sum to %d, threads issued %d",
				seed, stores, total)
		}
	}
}
