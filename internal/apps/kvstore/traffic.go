package kvstore

import (
	"fmt"

	"github.com/quartz-emu/quartz/internal/obs/vtprof"
	"github.com/quartz-emu/quartz/internal/simos"
	"github.com/quartz-emu/quartz/internal/workload"
)

// phaseTrafficPreload frames the store preload in vtprof output (the op
// phases themselves come from the traffic engine's op-kind tagging).
var phaseTrafficPreload = vtprof.Intern("traffic-preload")

// TrafficTarget adapts a Store to the traffic engine's workload.Target
// surface, adding the same per-key payload touches the validation workload
// charges (value bytes in a separate arena, so serving traffic is
// memory-bound the way production values are, not just tree-node-bound).
type TrafficTarget struct {
	s *Store
	payload
}

// NewTrafficTarget builds the adapter. valueBytes > 0 attaches a payload
// arena sized for keys in [0, keySpace) from alloc; 0 skips payloads.
func NewTrafficTarget(s *Store, keySpace uint64, valueBytes int, alloc Alloc) (*TrafficTarget, error) {
	p, err := newPayload(keySpace, valueBytes, alloc)
	if err != nil {
		return nil, err
	}
	return &TrafficTarget{s: s, payload: p}, nil
}

// Preload inserts keys 0..count-1 from th, writing each payload, so scans
// over the traffic key space find dense runs.
func (tt *TrafficTarget) Preload(th *simos.Thread, count uint64) error {
	th.PushPhase(phaseTrafficPreload)
	defer th.PopPhase()
	for k := uint64(0); k < count; k++ {
		if err := tt.s.Put(th, k, k); err != nil {
			return fmt.Errorf("kvstore: traffic preload: %w", err)
		}
		tt.touch(th, k, true)
	}
	return nil
}

// Read looks key up and reads its payload on a hit.
func (tt *TrafficTarget) Read(t *simos.Thread, key uint64) bool {
	_, ok := tt.s.Get(t, key)
	if ok {
		tt.touch(t, key, false)
	}
	return ok
}

// Update inserts or overwrites key and writes its payload.
func (tt *TrafficTarget) Update(t *simos.Thread, key uint64, value uint64) error {
	if err := tt.s.Put(t, key, value); err != nil {
		return err
	}
	tt.touch(t, key, true)
	return nil
}

// Scan visits up to limit items from key onward, reading each payload.
func (tt *TrafficTarget) Scan(t *simos.Thread, key uint64, limit int) int {
	n := 0
	tt.s.Scan(t, key, limit, func(k, v uint64) bool {
		tt.touch(t, k, false)
		n++
		return true
	})
	return n
}

// TrafficTarget implements workload.Target.
var _ workload.Target = (*TrafficTarget)(nil)
