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

// closeEpochCallers are the only places non-test Go may name CloseEpoch:
// the emulator's own epoch code and the callback API that cmd/quartzperf
// still calls (bench.Env.CloseEpoch, workload.ScenarioConfig.CloseEpoch).
// Everything else ends a measured window with simos.Thread.SettledNow.
var closeEpochCallers = []string{
	"internal/core/",
	"internal/bench/env.go",
	"internal/workload/engine.go",
	"internal/experiments/traffic.go",
	"cmd/quartzperf/",
}

// TestNoHandMadeEpochCloses fails when non-test Go outside
// closeEpochCallers names CloseEpoch: a window that closes the trailing
// epoch by hand, where a settled clock read does it by construction.
func TestNoHandMadeEpochCloses(t *testing.T) {
	root := "../.."
	err := walkGo(root, func(fset *token.FileSet, path string, f *ast.File) {
		rel, err := filepath.Rel(root, path)
		if err != nil {
			t.Fatal(err)
		}
		rel = filepath.ToSlash(rel)
		if slices.ContainsFunc(closeEpochCallers, func(p string) bool { return strings.HasPrefix(rel, p) }) {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == "CloseEpoch" {
				t.Errorf("%s: CloseEpoch closes an epoch by hand; end the window with simos.Thread.SettledNow", fset.Position(id.Pos()))
			}
			return true
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestExperimentEnvsAttachObservers fails when non-test Go in
// internal/experiments names bench.NewEnv outside Scale.env, the one
// constructor that attaches the run's recorder and the job's profiler to
// every experiment simulation; a simulation built anywhere else would run
// unobserved.
func TestExperimentEnvsAttachObservers(t *testing.T) {
	root := "../.."
	dir := filepath.Join(root, "internal", "experiments")
	err := walkGo(dir, func(fset *token.FileSet, path string, f *ast.File) {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.Name == "env" && fn.Recv != nil {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "NewEnv" {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "bench" {
					t.Errorf("%s: bench.NewEnv builds an experiment simulation without its observers; build it with Scale.env", fset.Position(sel.Pos()))
				}
				return true
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// walkGo parses every non-test Go file under root, skipping hidden and
// testdata directories, and hands each to fn.
func walkGo(root string, fn func(fset *token.FileSet, path string, f *ast.File)) error {
	fset := token.NewFileSet()
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
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
		fn(fset, path, f)
		return nil
	})
}

// scanExports parses the non-test Go under root. It returns the exported
// funcs and methods of non-main packages, keyed as in keptExports, with
// their positions, and counts every other identifier by name.
func scanExports(root string) (decls map[string]string, uses map[string]int, err error) {
	decls, uses = map[string]string{}, map[string]int{}
	err = walkGo(root, func(fset *token.FileSet, path string, f *ast.File) {
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
	})
	return decls, uses, err
}
