package core

import (
	"testing"

	"github.com/quartz-emu/quartz/internal/machine"
	"github.com/quartz-emu/quartz/internal/obs"
	"github.com/quartz-emu/quartz/internal/sim"
	"github.com/quartz-emu/quartz/internal/simos"
)

// TestSettledNowClosesOneEpoch: under the emulator, Thread.SettledNow
// closes the reading thread's open epoch, exactly one, with ledger reason
// "end", and returns only after that epoch's delay has been injected.
func TestSettledNowClosesOneEpoch(t *testing.T) {
	rec := obs.New(0)
	_, p := newMachineProc(t, machine.XeonE5_2660v2, simosOptsSocket0())
	cfg := fastCfg(500)
	cfg.Observer = rec
	e, err := Attach(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ch := buildChase(t, p, 0, chaseLines, 23)
	var tid, epochs int
	var read, got sim.Time
	if err := e.Run(func(th *simos.Thread) {
		ch.run(th, 2_000) // ~0.2 ms of misses: well inside one 1 ms epoch
		tid = th.TID()
		epochs = len(rec.Ledger())
		read = th.Now()
		got = th.SettledNow()
		epochs = len(rec.Ledger()) - epochs
	}); err != nil {
		t.Fatal(err)
	}
	if epochs != 1 {
		t.Fatalf("SettledNow closed %d epochs, want 1", epochs)
	}
	var r obs.EpochRecord
	for _, l := range rec.Ledger() {
		if l.TID == tid && l.End == read {
			r = l
		}
	}
	if r.Reason != "end" {
		t.Fatalf("settled epoch ending at %v: reason %q, want \"end\"", read, r.Reason)
	}
	if r.Injected <= 0 {
		t.Fatalf("settled epoch injected %v after 2000 emulated misses", r.Injected)
	}
	if r.InjectEnd > got || got-read < r.Injected {
		t.Errorf("SettledNow returned %v (read at %v) but the epoch injected %v until %v",
			got, read, r.Injected, r.InjectEnd)
	}
}

// TestSettledNowWithoutEpochIsNow: on the monitor thread, which the
// emulator never registers, and in a process with no emulator, SettledNow
// is Now and closes nothing.
func TestSettledNowWithoutEpochIsNow(t *testing.T) {
	rec := obs.New(0)
	_, p := newMachineProc(t, machine.XeonE5_2660v2, simosOptsSocket0())
	cfg := fastCfg(500)
	cfg.Observer = rec
	e, err := Attach(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(func(th *simos.Thread) {
		mon := e.monitorThread
		n, now := len(rec.Ledger()), mon.Now()
		if got := mon.SettledNow(); got != now {
			t.Errorf("monitor SettledNow = %v, Now = %v", got, now)
		}
		if d := len(rec.Ledger()) - n; d != 0 {
			t.Errorf("monitor SettledNow closed %d epochs", d)
		}
	}); err != nil {
		t.Fatal(err)
	}

	_, bare := newMachineProc(t, machine.XeonE5_2660v2, simosOptsSocket0())
	if err := bare.Run(func(th *simos.Thread) {
		th.Compute(1_000)
		if now, got := th.Now(), th.SettledNow(); got != now {
			t.Errorf("SettledNow without an emulator = %v, Now = %v", got, now)
		}
	}); err != nil {
		t.Fatal(err)
	}
}
