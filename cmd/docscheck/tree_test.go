package main

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestReadmeTreeListsInternalPackages fails unless every module map — the
// README's architecture tree and the module tables of doc/architecture.md
// and DESIGN.md — names exactly the top-level directories under internal/,
// so a deleted package cannot linger in one and a new one cannot go
// unlisted.
func TestReadmeTreeListsInternalPackages(t *testing.T) {
	entries, err := os.ReadDir("../../internal")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, e := range entries {
		if e.IsDir() {
			want = append(want, e.Name())
		}
	}

	for _, m := range []struct {
		file  string
		names func(lines []string) []string
	}{
		{"README.md", readmeTreePackages},
		{"doc/architecture.md", moduleTablePackages},
		{"DESIGN.md", moduleTablePackages},
	} {
		data, err := os.ReadFile("../../" + m.file)
		if err != nil {
			t.Fatal(err)
		}
		got := m.names(strings.Split(string(data), "\n"))
		slices.Sort(got)
		if len(got) == 0 {
			t.Errorf("%s has no module map", m.file)
		} else if !slices.Equal(got, want) {
			t.Errorf("%s module map lists %v, want the directories %v", m.file, got, want)
		}
	}
}

// readmeTreePackages reads the README's tree. It opens with an "internal/"
// line; its packages are the two-space-indented "name/" lines up to the
// next unindented line.
func readmeTreePackages(lines []string) []string {
	var got []string
	inTree := false
	for _, line := range lines {
		switch {
		case line == "internal/":
			inTree = true
		case inTree && !strings.HasPrefix(line, " "):
			inTree = false
		case inTree && strings.HasPrefix(line, "  ") && line[2] != ' ':
			name, _, _ := strings.Cut(strings.TrimSpace(line), " ")
			got = append(got, strings.TrimSuffix(name, "/"))
		}
	}
	return got
}

// moduleTablePackages reads the rows of a Markdown module table whose
// first cell names an internal package: "| `internal/obs` |" gives obs and
// "| `internal/apps/*` |" gives apps.
func moduleTablePackages(lines []string) []string {
	const prefix = "| `internal/"
	var got []string
	for _, line := range lines {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			got = append(got, rest[:strings.IndexAny(rest, "/`")])
		}
	}
	return got
}
