package main

import (
	"bufio"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestReadmeTreeListsInternalPackages fails unless the README's
// architecture tree lists exactly the top-level directories under
// internal/, so a deleted package cannot linger there and a new one cannot
// go unlisted.
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

	f, err := os.Open("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// The tree opens with an "internal/" line; its packages are the
	// two-space-indented "name/" lines up to the next unindented line.
	var got []string
	inTree := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
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
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	slices.Sort(got)
	if len(got) == 0 {
		t.Fatal("README.md has no internal/ tree")
	}
	if !slices.Equal(got, want) {
		t.Errorf("README internal/ tree lists %v, want the directories %v", got, want)
	}
}
