package experiments

import (
	"path/filepath"
	"testing"

	"github.com/quartz-emu/quartz/internal/golden"
)

// TestGoldenTables pins the rendered output of every registered experiment
// at tiny scale against committed golden files. Experiment tables are
// virtual-time measurements and must be byte-identical run to run — this is
// the determinism gate the hot-path optimizations and refactors are held
// to. Regenerate with `go test ./internal/experiments -run TestGoldenTables
// -update` and review the diff: any change means simulated timing changed.
func TestGoldenTables(t *testing.T) {
	for _, id := range All() {
		t.Run(id, func(t *testing.T) {
			tab, err := Run(id, tiny)
			if err != nil {
				t.Fatal(err)
			}
			golden.Check(t, []byte(tab.Render()), filepath.Join("testdata", id+".golden"))
		})
	}
}
