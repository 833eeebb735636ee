package main

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

const module = "github.com/quartz-emu/quartz/"

// hardwareModel lists the packages of the simulated machine. They model
// hardware and know nothing of observation: the emulator, which programs
// them, is what reports to a recorder.
var hardwareModel = []string{"sim", "cache", "cpu", "mem", "perf", "machine"}

// TestHardwareModelDoesNotImportObs fails when a hardware-model package
// imports internal/obs or a package under it, directly or through another
// package of the module.
func TestHardwareModelDoesNotImportObs(t *testing.T) {
	fset := token.NewFileSet()
	imports := map[string][]string{} // package dir under the module -> its module imports
	load := func(dir string) []string {
		if deps, ok := imports[dir]; ok {
			return deps
		}
		files, err := filepath.Glob(filepath.Join("../..", dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no Go files (%v)", dir, err)
		}
		var deps []string
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			af, err := parser.ParseFile(fset, f, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range af.Imports {
				path, _ := strconv.Unquote(spec.Path.Value)
				if dep, ok := strings.CutPrefix(path, module); ok {
					deps = append(deps, dep)
				}
			}
		}
		slices.Sort(deps)
		deps = slices.Compact(deps)
		imports[dir] = deps
		return deps
	}
	var walk func(chain []string)
	walk = func(chain []string) {
		dir := chain[len(chain)-1]
		if dir == "internal/obs" || strings.HasPrefix(dir, "internal/obs/") {
			t.Errorf("%s imports %s", chain[0], strings.Join(chain[1:], " -> "))
			return
		}
		for _, dep := range load(dir) {
			walk(append(chain[:len(chain):len(chain)], dep))
		}
	}
	for _, pkg := range hardwareModel {
		walk([]string{"internal/" + pkg})
	}
}
