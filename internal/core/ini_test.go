package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/quartz-emu/quartz/internal/perf"
	"github.com/quartz-emu/quartz/internal/sim"
)

const sampleINI = `
; nvmemul.ini-style configuration
[general]

[latency]
enable = true
read = 500      ; ns
write = 700
nvm_write = 680 ; asymmetric store-model NVM write latency, ns

[bandwidth]
enable = true
read = 5000     # MB/s
write = 2000

[epochs]
min = 0.1
max = 10
monitor_interval = 5

[model]
type = stall
pmc = rdpmc
inject = true
amortize = true

[topology]
two_memory = true
`

func TestParseINIFull(t *testing.T) {
	cfg, err := ParseINI(strings.NewReader(sampleINI))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NVMLatency != sim.FromNanos(500) {
		t.Errorf("NVMLatency = %v, want 500ns", cfg.NVMLatency)
	}
	if cfg.WriteLatency != sim.FromNanos(700) {
		t.Errorf("WriteLatency = %v, want 700ns", cfg.WriteLatency)
	}
	if cfg.NVMWriteLatency != sim.FromNanos(680) {
		t.Errorf("NVMWriteLatency = %v, want 680ns", cfg.NVMWriteLatency)
	}
	if cfg.NVMBandwidth != 5000e6 {
		t.Errorf("NVMBandwidth = %g, want 5e9", cfg.NVMBandwidth)
	}
	if cfg.NVMWriteBandwidth != 2000e6 {
		t.Errorf("NVMWriteBandwidth = %g, want 2e9", cfg.NVMWriteBandwidth)
	}
	if cfg.MinEpoch != 100*sim.Microsecond || cfg.MaxEpoch != 10*sim.Millisecond {
		t.Errorf("epochs = %v/%v", cfg.MinEpoch, cfg.MaxEpoch)
	}
	if cfg.MonitorInterval != 5*sim.Millisecond {
		t.Errorf("monitor interval = %v", cfg.MonitorInterval)
	}
	if cfg.Model != ModelStall || cfg.CounterMode != perf.RDPMC {
		t.Errorf("model = %v / %v", cfg.Model, cfg.CounterMode)
	}
	if cfg.InjectionOff || cfg.DisableAmortization {
		t.Error("inject/amortize flags inverted")
	}
	if !cfg.TwoMemory {
		t.Error("two_memory not set")
	}
}

func TestParseINIDisabledSections(t *testing.T) {
	cfg, err := ParseINI(strings.NewReader(`
[latency]
enable = false
read = 500
nvm_write = 680
[bandwidth]
enable = no
read = 9000
`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NVMLatency != 0 || cfg.NVMBandwidth != 0 {
		t.Errorf("disabled sections leaked: lat=%v bw=%g", cfg.NVMLatency, cfg.NVMBandwidth)
	}
	if cfg.NVMWriteLatency != 0 {
		t.Errorf("enable = false leaked nvm_write: %v", cfg.NVMWriteLatency)
	}
}

// TestSampleINIMatchesParser is the drift gate between the shipped sample
// configuration (docs/nvmemul.ini.sample) and the parser: every key in the
// sample must parse, and the documented asymmetric store-model knob
// ([latency] nvm_write) must round-trip into Config.NVMWriteLatency. A new
// ini key without a sample line (or vice versa) should fail here, not in a
// user's config.
func TestSampleINIMatchesParser(t *testing.T) {
	cfg, err := LoadINIFile(filepath.Join("..", "..", "docs", "nvmemul.ini.sample"))
	if err != nil {
		t.Fatalf("shipped sample no longer parses: %v", err)
	}
	if cfg.NVMLatency != sim.FromNanos(500) {
		t.Errorf("sample NVMLatency = %v, want 500ns", cfg.NVMLatency)
	}
	if cfg.NVMWriteLatency != sim.FromNanos(680) {
		t.Errorf("sample NVMWriteLatency = %v, want 680ns (is the nvm_write line present?)", cfg.NVMWriteLatency)
	}
	if cfg.NVMWriteBandwidth != 2000e6 {
		t.Errorf("sample NVMWriteBandwidth = %g, want 2e9", cfg.NVMWriteBandwidth)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("shipped sample does not validate: %v", err)
	}
}

func TestParseINIInvertedFlags(t *testing.T) {
	cfg, err := ParseINI(strings.NewReader(`
[model]
inject = false
amortize = off
pmc = papi
type = simple
`))
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.InjectionOff || !cfg.DisableAmortization {
		t.Error("inject=false / amortize=off not applied")
	}
	if cfg.CounterMode != perf.PAPI || cfg.Model != ModelSimple {
		t.Errorf("pmc/type = %v/%v", cfg.CounterMode, cfg.Model)
	}
}

// badINI lists configurations ParseINI must reject; FuzzParseINI seeds
// from them too.
var badINI = []struct {
	name string
	in   string
}{
	{"unknown-section", "[frobnicate]\nx = 1\n"},
	{"unknown-key", "[latency]\nbogus = 1\n"},
	{"bad-number", "[latency]\nread = fast\n"},
	{"bad-bool", "[latency]\nenable = maybe\n"},
	{"no-section", "read = 500\n"},
	{"no-equals", "[latency]\nread 500\n"},
	{"bad-model", "[model]\ntype = quantum\n"},
	{"bad-pmc", "[model]\npmc = msr\n"},
	{"nan-latency", "[latency]\nread = NaN\n"},
	{"inf-latency", "[latency]\nread = Inf\n"},
	{"negative-dram", "[latency]\ndram = -100\n"},
	{"out-of-range-latency", "[latency]\nread = 1e13\n"},
	{"nan-bandwidth", "[bandwidth]\nread = NaN\n"},
	{"negative-bandwidth", "[bandwidth]\nwrite = -1\n"},
	{"negative-epoch", "[epochs]\nmin = -1\n"},
	{"inf-epoch", "[epochs]\nmax = +Inf\n"},
	{"general-key", "[general]\nlatency_read = 900\n"},
	{"bandwidth-model-alias", "[bandwidth]\nread = 100\nmodel = 9000\n"},
}

func TestParseINIErrors(t *testing.T) {
	for _, tt := range badINI {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ParseINI(strings.NewReader(tt.in)); err == nil {
				t.Errorf("ParseINI(%q) succeeded, want error", tt.in)
			}
		})
	}
}

func TestLoadINIFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "nvmemul.ini")
	if err := os.WriteFile(path, []byte(sampleINI), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadINIFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NVMLatency != sim.FromNanos(500) {
		t.Errorf("file config NVMLatency = %v", cfg.NVMLatency)
	}
	if _, err := LoadINIFile(filepath.Join(dir, "missing.ini")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestParsedConfigValidatesAndAttaches(t *testing.T) {
	cfg, err := ParseINI(strings.NewReader(`
[latency]
read = 400
[epochs]
min = 0.05
max = 2
`))
	if err != nil {
		t.Fatal(err)
	}
	cfg.InitCycles = 1
	_, p := newMachineProc(t, machineIvy(), simosOptsSocket0())
	if _, err := Attach(p, cfg); err != nil {
		t.Errorf("parsed config failed to attach: %v", err)
	}
}

// FuzzParseINI: ParseINI never panics, and a configuration that parses and
// validates formats with %v and holds no negative duration.
func FuzzParseINI(f *testing.F) {
	sample, err := os.ReadFile(filepath.Join("..", "..", "docs", "nvmemul.ini.sample"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(sample))
	for _, tt := range badINI {
		f.Add(tt.in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		cfg, err := ParseINI(strings.NewReader(in))
		if err != nil || cfg.Validate() != nil {
			return
		}
		_ = fmt.Sprintf("%v", cfg)
		for _, d := range []sim.Time{cfg.NVMLatency, cfg.WriteLatency, cfg.NVMWriteLatency, cfg.DRAMLatency,
			cfg.MinEpoch, cfg.MaxEpoch, cfg.MonitorInterval} {
			if d < 0 {
				t.Errorf("ParseINI(%q) validated with negative duration %v", in, d)
			}
		}
	})
}
