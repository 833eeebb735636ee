package workload

import "github.com/quartz-emu/quartz/internal/sim"

// Per-worker next-due pickers. The engine owns clients as flat parallel
// slices indexed by local position i (global client c = w + i*pool); the
// pickers below decide which position is served next. All of them reproduce
// the reference rule exactly — earliest due time wins, ties go to the lowest
// position (equivalently the lowest global client index, since global order
// is position order within one worker) — so the served op sequence, and with
// it every simulated timestamp, is identical whichever picker runs. That
// equivalence is pinned by TestSchedulerEquivalence.
//
// Cost per pick: the reference scan is O(owned); the 4-ary heap is
// O(log4 owned); the open-loop calendar and the closed-loop FIFO are O(1). At a million clients over a 16-thread pool an owned set is
// 65 536 clients, so the difference is the whole ballgame.

// schedMode selects the picker. The zero value picks automatically: the
// calendar for open-loop fixed arrivals, the FIFO ring (with its heap
// fallback) for the closed loop. The forced modes exist for the
// equivalence tests.
type schedMode uint8

const (
	schedAuto   schedMode = iota
	schedHeap             // force the 4-ary heap even where a fast path applies
	schedLinear           // reference O(owned) scan (the pre-flattening picker)
)

// heap4 is a 4-ary min-heap of local client positions keyed by
// (due[pos], pos) — lexicographic, so equal due times pop in position order,
// matching the reference scan's lowest-position-wins tie-break. The 4-ary
// layout halves a binary heap's depth and keeps three of four children on
// the parent's cache line pair.
type heap4 struct {
	idx []int32
	due []sim.Time // the worker's due vector (shared, not owned)
}

func (h *heap4) len() int { return len(h.idx) }

func (h *heap4) less(a, b int32) bool {
	da, db := h.due[a], h.due[b]
	return da < db || (da == db && a < b)
}

// resetAll fills the heap with positions 0..n-1 and restores heap order.
func (h *heap4) resetAll(n int32) {
	h.idx = h.idx[:0]
	for i := int32(0); i < n; i++ {
		h.idx = append(h.idx, i)
	}
	h.heapify()
}

// heapify establishes heap order bottom-up in O(n).
func (h *heap4) heapify() {
	for k := (len(h.idx) - 2) / 4; k >= 0; k-- {
		h.siftDown(k)
	}
}

// min reports the position with the smallest (due, position) key.
func (h *heap4) min() int32 { return h.idx[0] }

// fixMin restores heap order after the root's due time changed (the served
// client's next due is never earlier than its previous one, so sifting down
// suffices).
func (h *heap4) fixMin() { h.siftDown(0) }

// popMin removes the root (a client that finished its per-phase quota).
func (h *heap4) popMin() {
	last := len(h.idx) - 1
	h.idx[0] = h.idx[last]
	h.idx = h.idx[:last]
	if last > 0 {
		h.siftDown(0)
	}
}

func (h *heap4) siftDown(k int) {
	n := len(h.idx)
	for {
		first := 4*k + 1
		if first >= n {
			return
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if h.less(h.idx[c], h.idx[best]) {
				best = c
			}
		}
		if !h.less(h.idx[best], h.idx[k]) {
			return
		}
		h.idx[k], h.idx[best] = h.idx[best], h.idx[k]
		k = best
	}
}

// fifoRing is the O(1) picker for the closed loop: a served
// client's next due is its completion time, which simulated-time
// monotonicity puts at or past every other owned client's due, so the
// earliest-due client is simply the least recently served one. The ring
// holds positions in (due, position) order; the engine guards every
// re-append and falls back to the heap if an op that completed in zero
// simulated time would break the order (see worker.runFIFO).
type fifoRing struct {
	buf  []int32 // capacity == owned count; at most that many queued
	head int32
	size int32
}

// reset fills the ring with positions 0..n-1 — the correct (due, position)
// order at phase start, when every due time is the phase start time.
func (f *fifoRing) reset(n int32) {
	f.buf = f.buf[:n]
	for i := int32(0); i < n; i++ {
		f.buf[i] = i
	}
	f.head, f.size = 0, n
}

// pop removes and returns the front position.
func (f *fifoRing) pop() int32 {
	i := f.buf[f.head]
	f.head++
	if f.head == int32(len(f.buf)) {
		f.head = 0
	}
	f.size--
	return i
}

// push appends a position at the back.
func (f *fifoRing) push(i int32) {
	p := f.head + f.size
	if n := int32(len(f.buf)); p >= n {
		p -= n
	}
	f.buf[p] = i
	f.size++
}

// back reports the most recently appended position (size must be > 0).
func (f *fifoRing) back() int32 {
	p := f.head + f.size - 1
	if n := int32(len(f.buf)); p >= n {
		p -= n
	}
	return f.buf[p]
}

// drain appends the ring's contents in queue order to dst and empties the
// ring (the heap-fallback handoff).
func (f *fifoRing) drain(dst []int32) []int32 {
	for f.size > 0 {
		dst = append(dst, f.pop())
	}
	return dst
}
