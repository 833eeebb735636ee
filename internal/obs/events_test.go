package obs

import (
	"sync"
	"testing"
	"time"
)

// TestEventsMatchLedgerOrder: epoch events must arrive in exactly the
// sequence order the ledger assigned, even when many goroutines close
// epochs concurrently — publication happens under the ledger lock.
func TestEventsMatchLedgerOrder(t *testing.T) {
	r := New(0)
	ch, cancel := r.Events(4096)
	defer cancel()

	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.EpochClosed(fullRecord(w*perWorker + i))
			}
		}(w)
	}
	wg.Wait()

	want := uint64(0)
	deadline := time.After(5 * time.Second)
	for want < workers*perWorker {
		select {
		case ev := <-ch:
			if ev.Kind != "epoch" {
				continue // interleaved inject events are fine
			}
			if ev.Seq != want {
				t.Fatalf("epoch event seq %d arrived out of order, want %d", ev.Seq, want)
			}
			want++
		case <-deadline:
			t.Fatalf("timed out after %d/%d epoch events", want, workers*perWorker)
		}
	}
	if dropped := r.EventsDropped(); dropped != 0 {
		t.Errorf("%d events dropped with a large subscriber buffer", dropped)
	}
}

// TestEventsInjectAndKinds: an epoch with injected delay publishes a
// paired inject event; throttle and job events carry their payloads.
func TestEventsInjectAndKinds(t *testing.T) {
	r := New(0)
	ch, cancel := r.Events(64)
	defer cancel()

	rec := fullRecord(3) // Injected > 0 for i=3
	if rec.Injected <= 0 {
		t.Fatal("fixture must have injected delay")
	}
	r.EpochClosed(rec)
	r.ThrottleProgrammed("/sys/devices/t0")
	r.JobDone("exp-1/j2", "ok", 1500*time.Millisecond)

	wantKinds := []string{"epoch", "inject", "throttle", "job"}
	for _, want := range wantKinds {
		select {
		case ev := <-ch:
			if ev.Kind != want {
				t.Fatalf("got kind %q, want %q", ev.Kind, want)
			}
			switch want {
			case "inject":
				if ev.InjectedNS != rec.Injected.Nanoseconds() {
					t.Errorf("inject event carries %v ns, want %v", ev.InjectedNS, rec.Injected)
				}
			case "throttle":
				if ev.Path == "" {
					t.Error("throttle event missing path")
				}
			case "job":
				if ev.Job != "exp-1/j2" || ev.Status != "ok" || ev.WallMS != 1500 {
					t.Errorf("job event payload: %+v", ev)
				}
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("timed out waiting for %q event", want)
		}
	}
}

// TestEventsNoSubscribersIsFree: with nobody subscribed, publishing drops
// nothing and counts nothing — the hub is inert.
func TestEventsNoSubscribersIsFree(t *testing.T) {
	r := New(0)
	for i := 0; i < 100; i++ {
		r.EpochClosed(fullRecord(i))
	}
	if got := r.EventsDropped(); got != 0 {
		t.Errorf("EventsDropped = %d with no subscribers, want 0", got)
	}
}

// TestEventsSlowSubscriberDrops: a full subscriber buffer must never block
// EpochClosed; overflow is counted, not waited on.
func TestEventsSlowSubscriberDrops(t *testing.T) {
	r := New(0)
	_, cancel := r.Events(1) // tiny buffer, never read
	defer cancel()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			r.EpochClosed(fullRecord(i))
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("EpochClosed blocked on a slow subscriber")
	}
	if r.EventsDropped() == 0 {
		t.Error("overflow not counted as dropped")
	}
}

// TestEventsNilRecorder: the nil receiver returns a closed-ish no-op
// subscription without panicking.
func TestEventsNilRecorder(t *testing.T) {
	var r *Recorder
	ch, cancel := r.Events(0)
	cancel()
	select {
	case _, ok := <-ch:
		if ok {
			t.Error("nil recorder delivered an event")
		}
	default:
	}
}
