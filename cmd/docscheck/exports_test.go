package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const (
	oracle  = "tests use it as an oracle for, or to drive, the simulated machine"
	appAPI  = "API of a modelled application or of the pmem calls it is built on"
	checkRd = "lost-record accounting or decoder that a run-time self-check reads"
	facade  = "root facade name the README documents"
	testAid = "test helper that only tests import"
)

// keptExports lists the exported funcs and methods that no non-test code
// names but that stay on purpose, each with the reason. Keys are
// package.Func or package.Type.Method.
var keptExports = map[string]string{
	"quartz.NewRecorder":                facade,
	"quartz.LoadConfigFile":             facade,
	"core.Emulator.PFree":               appAPI,
	"core.Emulator.IsNVM":               appAPI,
	"core.Emulator.NVMNode":             appAPI,
	"kvstore.Store.Delete":              appAPI,
	"pmlog.Log.DurableBytes":            appAPI,
	"pmlog.Log.Pending":                 appAPI,
	"pmlog.Log.Truncate":                appAPI,
	"obs.Recorder.Dropped":              checkRd,
	"obs.Recorder.SinkErr":              checkRd,
	"vtprof.Profile.TotalNS":            checkRd,
	"simos.Process.EndTime":             oracle,
	"simos.Thread.ComputeFor":           oracle,
	"sim.Coro.Sleep":                    oracle,
	"sim.Coro.Yield":                    oracle,
	"mem.Controller.EffectiveBandwidth": oracle,
	"mem.Controller.Throttle":           oracle,
	"mem.Controller.WriteThrottle":      oracle,
	"perf.Counters.TrueStallCycles":     oracle,
	"golden.Check":                      testAid,
}

// TestNoUnusedExports fails on an exported func or method, declared in
// non-test, non-main Go, whose name appears as an identifier nowhere else
// in non-test Go. The match is by name, not by type, so it under-reports;
// what it does report is surface that only tests keep alive. Delete such
// code, or add it to keptExports with the reason it stays.
func TestNoUnusedExports(t *testing.T) {
	decls, uses, err := scanExports("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range slices.Sorted(maps.Keys(decls)) {
		_, kept := keptExports[key]
		switch used := uses[key[strings.LastIndex(key, ".")+1:]] > 0; {
		case !used && !kept:
			t.Errorf("%s: %s is used by no non-test code; delete it or add it to keptExports", decls[key], key)
		case used && kept:
			t.Errorf("keptExports: %s is now used; drop its entry", key)
		}
	}
	for key := range keptExports {
		if decls[key] == "" {
			t.Errorf("keptExports: %s is not declared; drop its entry", key)
		}
	}
}

// scanExports parses the non-test Go under root. It returns the exported
// funcs and methods of non-main packages, keyed as in keptExports, with
// their positions, and counts every other identifier by name.
func scanExports(root string) (decls map[string]string, uses map[string]int, err error) {
	decls, uses = map[string]string{}, map[string]int{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declared := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() || f.Name.Name == "main" {
				continue
			}
			declared[fn.Name] = true
			key := f.Name.Name + "."
			if fn.Recv != nil {
				key += strings.TrimPrefix(types.ExprString(fn.Recv.List[0].Type), "*") + "."
			}
			decls[key+fn.Name.Name] = fset.Position(fn.Pos()).String()
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	return decls, uses, err
}
