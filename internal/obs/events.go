package obs

import (
	"sync"
	"sync/atomic"
)

// Event is one live-stream notification from a Recorder: an epoch close, a
// delay injection, a throttle-register programming, or an experiment-runner
// job completion. Events exist for the introspection plane (SSE streaming,
// quartztop); the ledger and the metrics registry remain the authoritative
// records — an overloaded subscriber loses events, never ledger records.
type Event struct {
	// Kind discriminates the payload: "epoch", "inject", "throttle", "job",
	// "traffic".
	Kind string `json:"kind"`

	// Epoch close / injection fields (Kind "epoch" and "inject"). Seq is the
	// ledger sequence number of the epoch, so an SSE consumer can correlate
	// events with /ledger records.
	Seq        uint64  `json:"seq,omitempty"`
	PID        int     `json:"pid,omitempty"`
	TID        int     `json:"tid,omitempty"`
	Reason     string  `json:"reason,omitempty"`
	LenNS      float64 `json:"len_ns,omitempty"`
	DelayNS    float64 `json:"delay_ns,omitempty"`
	InjectedNS float64 `json:"injected_ns,omitempty"`

	// Path is the throttled memory path ("read" or "write") for Kind
	// "throttle".
	Path string `json:"path,omitempty"`

	// Runner job fields (Kind "job").
	Job    string  `json:"job,omitempty"`
	Status string  `json:"status,omitempty"`
	WallMS float64 `json:"wall_ms,omitempty"`

	// Traffic scenario progress fields (Kind "traffic"): the scenario name,
	// its client count and op mix, measured-op progress, and the live
	// throughput/p99 of the measurement window so far (simulated time).
	Scenario  string  `json:"scenario,omitempty"`
	Clients   int     `json:"clients,omitempty"`
	Mix       string  `json:"mix,omitempty"`
	Done      int64   `json:"done,omitempty"`
	TotalOps  int64   `json:"total_ops,omitempty"`
	OpsPerSec float64 `json:"ops_per_sec,omitempty"`
	P99NS     float64 `json:"p99_ns,omitempty"`
}

// eventHub fans events out to subscribers over buffered channels. Publishing
// never blocks: a subscriber whose buffer is full loses the event (counted
// in dropped). With zero subscribers publish is a single atomic load, so the
// recording hot path pays nothing when nobody is streaming.
type eventHub struct {
	active  atomic.Int32
	dropped atomic.Int64

	mu   sync.Mutex
	subs map[int]chan Event
	next int
}

// publish delivers ev to every subscriber that has buffer space.
func (h *eventHub) publish(ev Event) {
	if h.active.Load() == 0 {
		return
	}
	h.mu.Lock()
	for _, ch := range h.subs {
		select {
		case ch <- ev:
		default:
			h.dropped.Add(1)
		}
	}
	h.mu.Unlock()
}

// subscribe registers a new subscriber with the given channel buffer
// (<= 0 selects a default of 1024) and returns its channel plus a cancel
// function. Events published after subscribe returns are delivered in
// publish order; cancel is idempotent and leaves any buffered events
// readable.
func (h *eventHub) subscribe(buf int) (<-chan Event, func()) {
	if buf <= 0 {
		buf = 1024
	}
	ch := make(chan Event, buf)
	h.mu.Lock()
	if h.subs == nil {
		h.subs = make(map[int]chan Event)
	}
	id := h.next
	h.next++
	h.subs[id] = ch
	h.mu.Unlock()
	h.active.Add(1)

	var once sync.Once
	cancel := func() {
		once.Do(func() {
			h.mu.Lock()
			delete(h.subs, id)
			h.mu.Unlock()
			h.active.Add(-1)
		})
	}
	return ch, cancel
}

// Events subscribes to the recorder's live event stream (see Event). buf is
// the subscriber's channel buffer (<= 0 selects the default). The returned
// cancel function must be called when done; it is idempotent. A nil recorder
// returns a nil channel (which blocks forever) and a no-op cancel.
func (r *Recorder) Events(buf int) (<-chan Event, func()) {
	if r == nil {
		return nil, func() {}
	}
	return r.hub.subscribe(buf)
}

// EventsDropped reports how many events were lost to full subscriber
// buffers since the recorder was created.
func (r *Recorder) EventsDropped() int64 {
	if r == nil {
		return 0
	}
	return r.hub.dropped.Load()
}

// epochEvents publishes the epoch-close event (and the injection event when
// the epoch actually injected delay) for rec. Called with r.mu held so that
// event order matches ledger order exactly.
func (r *Recorder) epochEvents(rec EpochRecord) {
	if r.hub.active.Load() == 0 {
		return
	}
	ev := Event{
		Kind:       "epoch",
		Seq:        rec.Seq,
		PID:        rec.PID,
		TID:        rec.TID,
		Reason:     rec.Reason,
		LenNS:      rec.Len().Nanoseconds(),
		DelayNS:    rec.Delay.Nanoseconds(),
		InjectedNS: rec.Injected.Nanoseconds(),
	}
	r.hub.publish(ev)
	if rec.Injected > 0 {
		ev.Kind = "inject"
		r.hub.publish(ev)
	}
}
