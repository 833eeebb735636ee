package core

import (
	"errors"
	"fmt"

	"github.com/quartz-emu/quartz/internal/machine"
	"github.com/quartz-emu/quartz/internal/obs"
	"github.com/quartz-emu/quartz/internal/perf"
	"github.com/quartz-emu/quartz/internal/sim"
	"github.com/quartz-emu/quartz/internal/simos"
)

// epochReason classifies why an epoch was closed.
type epochReason int

const (
	reasonMax  epochReason = iota + 1 // monitor signal: maximum epoch length
	reasonSync                        // inter-thread communication event
	reasonEnd                         // settled clock read / emulator shutdown
)

func (r epochReason) String() string {
	switch r {
	case reasonMax:
		return "max"
	case reasonSync:
		return "sync"
	case reasonEnd:
		return "end"
	default:
		return fmt.Sprintf("reason(%d)", int(r))
	}
}

// threadState is the emulator's per-registered-thread bookkeeping.
type threadState struct {
	t          *simos.Thread
	epochStart sim.Time
	snapshot   counterSample

	inEpochEnd bool

	// statistics
	epochs        int64
	maxEpochs     int64
	syncEpochs    int64
	injected      sim.Time
	wouldInject   sim.Time
	writeDelaySum sim.Time // store-model delay computed (asymmetric mode)
	storeMisses   int64    // store misses observed across closed epochs
	overhead      sim.Time
	carry         sim.Time // accumulated not-yet-amortized overhead
	epochLenSum   sim.Time
	flushes       int64
	flushStall    sim.Time
	pendingWrites []sim.Time // clflushopt completions awaiting pcommit
}

// Emulator is an attached Quartz instance.
type Emulator struct {
	proc *simos.Process
	mach *machine.Machine
	cfg  Config

	params   modelParams
	nvmNode  int
	writeLat sim.Time
	// asym is true when the store-side write model is active
	// (NVMWriteLatency > 0): store counters are programmed, read on every
	// epoch close (adding their read cost), and the write-stall term joins
	// the injected delay. False keeps the epoch path bit-identical to the
	// symmetric read-only model.
	asym bool
	// bwSockets are the sockets the bandwidth throttles target (the NVM
	// node in two-memory mode, every socket otherwise).
	bwSockets []int
	// epochCostCycles is the fixed per-close processing cost (counter reads
	// plus epoch logic), hoisted out of endEpoch at Attach time: the event
	// set, counter mode and logic cost are all fixed for the emulator's
	// lifetime, so the hot path must not rebuild them per epoch.
	epochCostCycles int64

	threads  []*threadState
	byThread map[*simos.Thread]*threadState

	monitorThread *simos.Thread
	stopMonitor   bool

	rec    *obs.Recorder // nil unless observability is enabled
	obsPID int           // trace PID assigned by rec

	attached bool
	ran      bool
}

// Attach prepares emulation of proc under cfg: it verifies the platform
// (DVFS off; counter support), programs the hardware (every core's PMC
// bank, the memory controllers' bandwidth throttles), and installs its
// hooks on the process's thread-start, synchronization and epoch-signal
// points. Call Run afterwards.
func Attach(proc *simos.Process, cfg Config) (*Emulator, error) {
	if proc == nil {
		return nil, errors.New("core: nil process")
	}
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mach := proc.Machine()
	mcfg := mach.Config()

	// §6: a varying frequency breaks the cycles<->time translation the
	// model depends on; the testbeds run with DVFS disabled.
	if mach.DVFS().Enabled() {
		return nil, errors.New("core: DVFS is enabled; disable frequency scaling before attaching (see §6)")
	}

	dramLat := cfg.DRAMLatency
	nvmNode := -1
	if cfg.TwoMemory {
		if len(mach.Sockets()) < 2 {
			return nil, errors.New("core: two-memory mode needs a multi-socket machine")
		}
		if !perf.SplitsLocalRemote(mach.Family()) {
			return nil, fmt.Errorf("core: two-memory mode needs local/remote miss counters, unavailable on %v", mach.Family())
		}
		for _, s := range proc.Options().AllowedSockets {
			if s != 0 {
				return nil, fmt.Errorf("core: two-memory mode requires threads bound to socket 0 (allowed: %v)", proc.Options().AllowedSockets)
			}
		}
		if len(proc.Options().AllowedSockets) == 0 {
			return nil, errors.New("core: two-memory mode requires AllowedSockets=[0] (virtual topology)")
		}
		nvmNode = 1
		if dramLat == 0 {
			dramLat = mcfg.RemoteLat // remote DRAM is the NVM substrate
		}
	} else if dramLat == 0 {
		dramLat = mcfg.LocalLat
	}
	if cfg.NVMLatency > 0 && cfg.NVMLatency < dramLat {
		return nil, fmt.Errorf("core: NVM latency %v below DRAM baseline %v; DRAM cannot be sped up", cfg.NVMLatency, dramLat)
	}

	for _, c := range mach.Cores() {
		c.Counters().SetEnabled(true)
	}

	// Sockets whose controllers the bandwidth throttles target: the NVM
	// node in two-memory mode, every socket otherwise. The write-collapse
	// curve reprograms the same set per thread registration.
	var bwSockets []int
	if cfg.TwoMemory {
		bwSockets = []int{nvmNode}
	} else {
		for s := range mach.Sockets() {
			bwSockets = append(bwSockets, s)
		}
	}

	if cfg.NVMBandwidth > 0 || cfg.NVMWriteBandwidth > 0 {
		readBW := cfg.NVMBandwidth
		writeBW := cfg.NVMWriteBandwidth
		if writeBW == 0 {
			writeBW = readBW // symmetric throttling by default
		}
		for _, s := range bwSockets {
			ctrl := mach.Socket(s).Ctrl
			if readBW > 0 {
				if err := ctrl.SetReadThrottle(ctrl.RegisterForBandwidth(readBW)); err != nil {
					return nil, fmt.Errorf("core: socket %d: %w", s, err)
				}
				cfg.Observer.ThrottleProgrammed("read")
			}
			if writeBW > 0 {
				if err := ctrl.SetWriteThrottle(ctrl.RegisterForBandwidth(writeBW)); err != nil {
					return nil, fmt.Errorf("core: socket %d: %w", s, err)
				}
				cfg.Observer.ThrottleProgrammed("write")
			}
		}
	}

	writeLat := cfg.WriteLatency
	if writeLat == 0 && cfg.NVMLatency > dramLat {
		writeLat = cfg.NVMLatency - dramLat
	}

	// The asymmetric store model programs extra counters, so its per-close
	// read cost grows with the store event set — but only when enabled, so
	// a symmetric configuration's epoch cost (and therefore its amortization
	// arithmetic and golden tables) is untouched.
	asym := cfg.NVMWriteLatency > 0
	nEvents := len(perf.EventsFor(mach.Family()))
	if asym {
		nEvents += len(perf.StoreEventsFor(mach.Family()))
	}

	e := &Emulator{
		proc: proc,
		mach: mach,
		cfg:  cfg,
		params: modelParams{
			model:       cfg.Model,
			nvmLat:      cfg.NVMLatency,
			nvmWriteLat: cfg.NVMWriteLatency,
			dramLat:     dramLat,
			l3Lat:       mcfg.L1.LookupLat + mcfg.L2.LookupLat + mcfg.L3.LookupLat,
			localLat:    mcfg.LocalLat,
			remoteLat:   mcfg.RemoteLat,
			freqHz:      mcfg.Core.FreqHz,
			twoMemory:   cfg.TwoMemory,
		},
		nvmNode:   nvmNode,
		writeLat:  writeLat,
		asym:      asym,
		bwSockets: bwSockets,
		epochCostCycles: perf.ReadCostCycles(cfg.CounterMode, nEvents) +
			cfg.EpochLogicCycles,
		byThread: make(map[*simos.Thread]*threadState),
	}

	// Observability: the configured recorder, usually nil — the disabled
	// path is one branch per epoch event.
	e.rec = cfg.Observer
	if e.rec != nil {
		e.obsPID = e.rec.RegisterProcess(fmt.Sprintf("quartz %s (NVM %v)", mcfg.Name, cfg.NVMLatency))
		proc.SetRecorder(e.rec)
	}

	proc.SetHooks(simos.Hooks{
		ThreadStarted: e.onThreadStarted,
		BeforeSync:    e.onSyncEvent,
		OnEpochSignal: e.onSigEpoch,
		Settle:        e.settle,
	})
	e.attached = true
	return e, nil
}

// Config reports the effective (default-filled) configuration.
func (e *Emulator) Config() Config { return e.cfg }

// DRAMLatency reports the baseline latency the model uses.
func (e *Emulator) DRAMLatency() sim.Time { return e.params.dramLat }

// WriteLatency reports the effective PFlush write delay.
func (e *Emulator) WriteLatency() sim.Time { return e.writeLat }

// Run executes fn as the emulated process's main function: the library
// initializes (charging its §3.2 init cost), registers the main thread,
// starts the monitor, runs fn, and shuts the monitor down.
func (e *Emulator) Run(fn simos.ThreadFunc) error {
	if !e.attached {
		return errors.New("core: emulator not attached")
	}
	if e.ran {
		return errors.New("core: emulator already ran")
	}
	e.ran = true
	err := e.proc.Run(func(t *simos.Thread) {
		t.Compute(e.cfg.InitCycles)
		e.register(t)

		monSocket := len(e.mach.Sockets()) - 1
		mon, merr := t.CreateThreadOn(monSocket, "quartz-monitor", e.monitorLoop)
		if merr != nil {
			t.Failf("core: spawning monitor: %v", merr)
		}
		e.monitorThread = mon

		fn(t)

		// Close the main thread's final epoch so trailing stalls are
		// accounted, then stop the monitor.
		e.settle(t)
		e.stopMonitor = true
		t.Kill(mon)
		t.Join(mon)
	})
	return err
}

// onThreadStarted registers a new application thread with the monitor
// (Fig. 5 step 1), charging the §3.2 registration cost.
func (e *Emulator) onThreadStarted(t *simos.Thread) {
	if t == e.monitorThread {
		return
	}
	t.Compute(e.cfg.RegisterCycles)
	e.register(t)
}

// register starts epoch bookkeeping for t.
func (e *Emulator) register(t *simos.Thread) {
	ts := &threadState{t: t}
	ts.epochStart = t.Now()
	ts.snapshot = e.readCountersRaw(t)
	e.threads = append(e.threads, ts)
	e.byThread[t] = ts
	if len(e.cfg.WriteBandwidthByThreads) > 0 {
		e.reprogramWriteThrottle(t, len(e.threads))
	}
}

// reprogramWriteThrottle applies the write-bandwidth collapse curve for the
// given registered-thread count: the curve's target (clamped to its ends)
// is translated to a throttle register and written to every NVM-throttled
// socket, through the same token-bucket path static bandwidth caps use.
func (e *Emulator) reprogramWriteThrottle(t *simos.Thread, writers int) {
	curve := e.cfg.WriteBandwidthByThreads
	if writers < 1 {
		writers = 1
	}
	if writers > len(curve) {
		writers = len(curve)
	}
	target := curve[writers-1]
	for _, s := range e.bwSockets {
		ctrl := e.mach.Socket(s).Ctrl
		if err := ctrl.SetWriteThrottle(ctrl.RegisterForBandwidth(target)); err != nil {
			t.Failf("core: programming write throttle on socket %d: %v", s, err)
		}
		e.rec.ThrottleProgrammed("write")
	}
}

// onSyncEvent closes the current epoch before an inter-thread communication
// event (lock acquire or release, condvar notify, barrier arrival) so the
// accumulated delay propagates to waiting threads (§2.3), subject to the
// minimum epoch length.
func (e *Emulator) onSyncEvent(t *simos.Thread) {
	ts := e.byThread[t]
	if ts == nil || ts.inEpochEnd {
		return
	}
	if t.Now()-ts.epochStart < e.cfg.MinEpoch {
		e.rec.EpochSuppressed("sync")
		return
	}
	e.endEpoch(ts, reasonSync)
}

// onSigEpoch handles the monitor's maximum-epoch signal in the context of
// the interrupted thread (Fig. 5 steps 2-6).
func (e *Emulator) onSigEpoch(t *simos.Thread) {
	ts := e.byThread[t]
	if ts == nil || ts.inEpochEnd {
		return // monitor shutdown kick or unregistered thread
	}
	if t.Now()-ts.epochStart < e.cfg.MinEpoch {
		e.rec.EpochSuppressed("max") // reset after the signal was sent (wake-up drift)
		return
	}
	e.endEpoch(ts, reasonMax)
}

// settle is the Settle hook behind simos.Thread.SettledNow: it closes t's
// current epoch, injecting any accrued delay before the clock is read, so a
// partial trailing epoch does not escape a measured window. The monitor and
// unregistered threads have no epoch to close.
func (e *Emulator) settle(t *simos.Thread) {
	ts := e.byThread[t]
	if ts == nil || ts.inEpochEnd {
		return
	}
	e.endEpoch(ts, reasonEnd)
}

// monitorLoop periodically scans registered threads and signals those whose
// epoch exceeds the maximum length.
func (e *Emulator) monitorLoop(mt *simos.Thread) {
	for !e.stopMonitor {
		_ = mt.Nanosleep(e.cfg.MonitorInterval) // EINTR only at shutdown
		if e.stopMonitor {
			return
		}
		mt.YieldStrict()
		for _, ts := range e.threads {
			if ts.t.Done() || ts.t == mt {
				continue
			}
			if mt.Now()-ts.epochStart > e.cfg.MaxEpoch {
				mt.Kill(ts.t)
			}
		}
	}
}

// readCountersRaw reads the Table 1 events without charging read cost (used
// for the initial snapshot, which the real library folds into registration).
func (e *Emulator) readCountersRaw(t *simos.Thread) counterSample {
	ctr := t.Core().Counters()
	var s counterSample
	read := func(ev perf.Event) uint64 {
		v, err := ctr.Read(ev)
		if err != nil {
			t.Failf("core: reading %v: %v", ev, err)
		}
		return v
	}
	s.stallCycles = read(perf.EventStallsL2Pending)
	s.l3Hit = read(perf.EventL3Hit)
	if perf.SplitsLocalRemote(ctr.Family()) {
		s.l3MissLoc = read(perf.EventL3MissLocal)
		s.l3MissRem = read(perf.EventL3MissRemote)
	} else {
		s.l3MissLoc = read(perf.EventL3Miss)
	}
	if e.asym {
		s.stores = read(perf.EventStoresRetired)
		if perf.SplitsLocalRemote(ctr.Family()) {
			s.storeMissLoc = read(perf.EventStoreMissLocal)
			s.storeMissRem = read(perf.EventStoreMissRemote)
		} else {
			s.storeMissLoc = read(perf.EventStoreMiss)
		}
	}
	return s
}

// endEpoch closes ts's current epoch: reads the counters (charging rdpmc or
// PAPI cost), evaluates the analytic model, amortizes accumulated overhead,
// injects the remaining delay by spinning, and opens a new epoch.
func (e *Emulator) endEpoch(ts *threadState, reason epochReason) {
	t := ts.t
	ts.inEpochEnd = true
	defer func() { ts.inEpochEnd = false }()

	epochLen := t.Now() - ts.epochStart

	costCycles := e.epochCostCycles
	t.Compute(costCycles)
	overhead := t.Core().TimeForCycles(costCycles)

	sample := e.readCountersRaw(t)
	delta := sample.delta(ts.snapshot)
	delay := e.params.delay(delta)

	// Asymmetric store model: the write-stall term joins the read delay and
	// is injected in the same spin, so virtual time stays coherent across
	// both models. delay stays the combined total through the amortization
	// arithmetic below; writeDelay is recorded separately in the ledger.
	var writeDelay sim.Time
	if e.asym {
		writeDelay = e.params.writeDelay(delta)
		delay += writeDelay
		ts.writeDelaySum += writeDelay
		ts.storeMisses += int64(delta.storeMisses())
	}

	ts.epochs++
	switch reason {
	case reasonMax:
		ts.maxEpochs++
	case reasonSync:
		ts.syncEpochs++
	}
	ts.epochLenSum += epochLen
	ts.overhead += overhead

	// Injection bookkeeping for the epoch ledger: what was actually spun,
	// and over which virtual-time window.
	var injected, injStart, injEnd sim.Time
	doInject := func(d sim.Time) {
		injStart = t.Now()
		e.inject(ts, d)
		injEnd = t.Now()
		injected = d
		// Attribute the injected span to the profiler's inject categories
		// (split read/write by the epoch's writeDelay share); the spin's
		// cycle-quantization overshoot lands in sched_wait.
		t.AccountInjected(d, writeDelay, delay)
	}

	if e.cfg.DisableAmortization {
		if !e.cfg.InjectionOff && delay > 0 {
			doInject(delay)
		} else {
			ts.wouldInject += delay
		}
	} else {
		// §3.2: discount injected delay by accumulated epoch-processing
		// overhead; carry the remainder into upcoming epochs.
		ts.carry += overhead
		switch {
		case e.cfg.InjectionOff:
			ts.wouldInject += delay
		case delay > ts.carry:
			inject := delay - ts.carry
			ts.carry = 0
			doInject(inject)
		default:
			ts.carry -= delay
		}
	}

	if e.rec != nil {
		epochEnd := ts.epochStart + epochLen
		e.rec.EpochClosed(obs.EpochRecord{
			PID:            e.obsPID,
			TID:            t.TID(),
			Thread:         t.Name(),
			Start:          ts.epochStart,
			End:            epochEnd,
			Reason:         reason.String(),
			StallCycles:    delta.stallCycles,
			L3Hit:          delta.l3Hit,
			L3MissLocal:    delta.l3MissLoc,
			L3MissRemote:   delta.l3MissRem,
			LDMStallCycles: e.params.observedStall(delta),
			Stores:         delta.stores,
			StoreMissLocal: delta.storeMissLoc,
			StoreMissRem:   delta.storeMissRem,
			Delay:          delay,
			WriteDelay:     writeDelay,
			Injected:       injected,
			InjectStart:    injStart,
			InjectEnd:      injEnd,
			Overhead:       overhead,
			Carry:          ts.carry,
		})
	}

	// Open the next epoch.
	ts.epochStart = t.Now()
	ts.snapshot = e.readCountersRaw(t)
}

// inject spins for d of virtual time using the rdtscp spin loop.
func (e *Emulator) inject(ts *threadState, d sim.Time) {
	t := ts.t
	target := t.Core().TSC(t.Now()) + uint64(sim.TimeToCycles(d, t.Core().FreqHz()))
	t.SpinUntilTSC(target, e.cfg.SpinPollCycles)
	ts.injected += d
}
