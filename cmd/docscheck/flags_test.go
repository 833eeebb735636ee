package main

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// cliPackages maps each documented CLI to the packages whose flag.FlagSet
// calls define its flags.
var cliPackages = map[string][]string{
	"quartzbench": {"cmd/quartzbench", "internal/cli"},
	"quartzrun":   {"cmd/quartzrun", "internal/cli"},
	"quartzcal":   {"cmd/quartzcal"},
	"quartztop":   {"cmd/quartztop"},
}

// flagMethods are the flag.FlagSet methods that define a flag.
var flagMethods = map[string]bool{
	"Bool": true, "BoolVar": true, "BoolFunc": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true, "IntVar": true,
	"Int64": true, "Int64Var": true, "String": true, "StringVar": true, "TextVar": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true, "Var": true,
}

// invocationRE finds a CLI name followed by its arguments: the rest of the
// line up to an inline-code or link delimiter.
var invocationRE = regexp.MustCompile(`\b(quartzbench|quartzrun|quartzcal|quartztop)((?:[ \t]+[^\x60)\s]+)+)`)

// flagTokenRE matches a flag argument and captures its name.
var flagTokenRE = regexp.MustCompile(`^--?([A-Za-z][\w-]*)(?:=.*)?$`)

// TestDocInvocationFlags fails on a flag in a Markdown command line that
// the invoked CLI does not define, so a retired or renamed flag cannot
// survive in an example. CHANGES.md is history and exempt.
func TestDocInvocationFlags(t *testing.T) {
	defined := map[string]map[string]bool{}
	for cli, pkgs := range cliPackages {
		defined[cli] = map[string]bool{"h": true, "help": true}
		for _, pkg := range pkgs {
			if err := collectFlags(filepath.Join("../..", pkg), defined[cli]); err != nil {
				t.Fatal(err)
			}
		}
		if len(defined[cli]) == 2 {
			t.Fatalf("%s: no flag definitions found in %v", cli, pkgs)
		}
	}
	bad, err := undefinedDocFlags("../..", defined)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bad {
		t.Error(b)
	}
}

// collectFlags adds the name of every flag defined in the non-test Go of
// dir: the first string-literal argument among the first two of a
// flag-defining call.
func collectFlags(dir string, into map[string]bool) error {
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	for _, pkg := range pkgs {
		ast.Inspect(pkg, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !flagMethods[sel.Sel.Name] {
				return true
			}
			for _, arg := range call.Args[:min(2, len(call.Args))] {
				if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if name, err := strconv.Unquote(lit.Value); err == nil {
						into[name] = true
					}
					break
				}
			}
			return true
		})
	}
	return nil
}

// undefinedDocFlags scans the Markdown under root, joining lines continued
// with a trailing backslash, and reports each flag an invocation passes
// that its CLI does not define, as "file:line: cli -flag".
func undefinedDocFlags(root string, defined map[string]map[string]bool) ([]string, error) {
	var bad []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".md") || d.Name() == "CHANGES.md" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		var line string
		start := 0
		for n := 1; sc.Scan(); n++ {
			if line == "" {
				start = n
			}
			line += sc.Text()
			if strings.HasSuffix(line, `\`) {
				line = strings.TrimSuffix(line, `\`) + " "
				continue
			}
			for _, m := range invocationRE.FindAllStringSubmatch(line, -1) {
				for _, arg := range strings.Fields(m[2]) {
					if strings.ContainsAny(arg[:1], "|;&<>#") || strings.HasPrefix(arg, "2>") {
						break // the rest belongs to another command
					}
					if fm := flagTokenRE.FindStringSubmatch(arg); fm != nil && !defined[m[1]][fm[1]] {
						bad = append(bad, path+":"+strconv.Itoa(start)+": "+m[1]+" "+arg)
					}
				}
			}
			line = ""
		}
		return sc.Err()
	})
	return bad, err
}
