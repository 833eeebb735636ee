package main

import (
	"os"
	"strings"
	"testing"

	"github.com/quartz-emu/quartz/internal/experiments"
)

// TestFullResultsCoverEveryExperiment fails when a registered experiment
// has no "== id:" section in full_results.txt, the file EXPERIMENTS.md
// names as holding the complete raw tables. `make full-results`
// regenerates it.
func TestFullResultsCoverEveryExperiment(t *testing.T) {
	data, err := os.ReadFile("../../full_results.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range experiments.All() {
		if !strings.Contains(string(data), "\n== "+id+": ") {
			t.Errorf("full_results.txt has no section for %s; regenerate it with make full-results", id)
		}
	}
}
