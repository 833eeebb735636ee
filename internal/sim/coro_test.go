package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// runOnOwnGoroutine calls k.Run on a fresh goroutine, so a body's
// runtime.Goexit cannot end the test goroutine. It reports whether Run
// returned (rather than its goroutine ending by Goexit) and Run's error.
func runOnOwnGoroutine(k *Kernel) (returned bool, err error) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		err = k.Run()
		returned = true
	}()
	<-done
	return returned, err
}

// checkGoroutinesReturnTo polls briefly for runtime.NumGoroutine to fall
// back to want, then fails the test if it has not.
func checkGoroutinesReturnTo(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > want {
		t.Errorf("%d goroutine(s) outlived Run (%d before, %d after)", got-want, want, got)
	}
}

// spawnBystander adds a thread that is suspended mid-run (between strict
// steps) when any peer starting at time 0 first runs.
func spawnBystander(k *Kernel) {
	k.Spawn("bystander", 0, func(c *Coro) {
		for i := 0; i < 1000; i++ {
			c.Advance(Nanosecond)
			c.Strict()
		}
	})
}

// TestRunLeavesNoGoroutines pins that Run unwinds every coroutine it
// started on each way a simulation can end.
func TestRunLeavesNoGoroutines(t *testing.T) {
	tests := []struct {
		name         string
		setup        func(k *Kernel)
		wantReturned bool
		wantErr      string // substring; "" means Run must succeed
	}{
		{
			name: "finish",
			setup: func(k *Kernel) {
				spawnBystander(k)
				spawnBystander(k)
			},
			wantReturned: true,
		},
		{
			name: "failf",
			setup: func(k *Kernel) {
				spawnBystander(k)
				k.Spawn("bad", 0, func(c *Coro) { c.Failf("boom") })
			},
			wantReturned: true,
			wantErr:      "boom",
		},
		{
			name: "panic",
			setup: func(k *Kernel) {
				spawnBystander(k)
				k.Spawn("panicky", 0, func(c *Coro) { panic("unexpected") })
			},
			wantReturned: true,
			wantErr:      "unexpected",
		},
		{
			name: "deadlock",
			setup: func(k *Kernel) {
				k.Spawn("stuck-a", 0, func(c *Coro) { c.Block() })
				k.Spawn("stuck-b", 0, func(c *Coro) { c.Block() })
			},
			wantReturned: true,
			wantErr:      "deadlock",
		},
		{
			name: "goexit",
			setup: func(k *Kernel) {
				spawnBystander(k)
				k.Spawn("quitter", 0, func(c *Coro) { runtime.Goexit() })
			},
			wantReturned: false,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			k := NewKernel(0)
			tt.setup(k)
			returned, err := runOnOwnGoroutine(k)
			if returned != tt.wantReturned {
				t.Fatalf("Run returned = %v, want %v", returned, tt.wantReturned)
			}
			switch {
			case tt.wantErr == "" && err != nil:
				t.Errorf("Run() = %v, want nil", err)
			case tt.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tt.wantErr)):
				t.Errorf("Run() = %v, want error containing %q", err, tt.wantErr)
			}
			checkGoroutinesReturnTo(t, before)
		})
	}
}

// TestBodyGoexitEndsRunCaller pins what runtime.Goexit in a body does: Run
// does not return; every other started coro is unwound (its defers run)
// and then the Goexit ends the goroutine that called Run.
func TestBodyGoexitEndsRunCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel(0)
	var unwound, after bool
	k.Spawn("bystander", 0, func(c *Coro) {
		defer func() { unwound = true }()
		for {
			c.Advance(Nanosecond)
			c.Strict()
		}
	})
	k.Spawn("quitter", 0, func(c *Coro) {
		c.Advance(5 * Nanosecond)
		c.Strict()
		runtime.Goexit()
		after = true
	})
	if returned, err := runOnOwnGoroutine(k); returned {
		t.Fatalf("Run returned normally (err %v), want its caller to Goexit", err)
	}
	if after {
		t.Error("quitter kept running after runtime.Goexit")
	}
	if !unwound {
		t.Error("bystander was not unwound before Run's caller exited")
	}
	checkGoroutinesReturnTo(t, before)
}
