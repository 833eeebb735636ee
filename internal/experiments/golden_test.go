package experiments

import (
	"path/filepath"
	"testing"

	"github.com/quartz-emu/quartz/internal/golden"
)

// TestGoldenTables pins the rendered output of representative experiments at
// tiny scale against committed golden files. Experiment tables are
// virtual-time measurements and must be byte-identical run to run — this is
// the determinism gate the hot-path optimizations are held to. Regenerate
// with `go test ./internal/experiments -run TestGoldenTables -update` and
// review the diff: any change means simulated timing changed.
func TestGoldenTables(t *testing.T) {
	// One latency sweep (epoch machinery, MemLat), one bandwidth sweep
	// (throttle registers, STREAM), one application (caches, prefetcher,
	// scheduler under multiple threads), and the two asymmetric-model sweeps
	// (store counters, write-stall injection, per-thread throttle curve).
	for _, id := range []string{"fig11", "fig8", "fig16", "fig11-asym", "fig12-asym"} {
		id := id
		t.Run(id, func(t *testing.T) {
			tab, err := Run(id, tiny)
			if err != nil {
				t.Fatal(err)
			}
			golden.Check(t, []byte(tab.Render()), filepath.Join("testdata", id+".golden"))
		})
	}
}
