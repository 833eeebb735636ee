package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/quartz-emu/quartz/internal/bench"
	"github.com/quartz-emu/quartz/internal/machine"
	"github.com/quartz-emu/quartz/internal/obs"
)

// TestParsePreset: -preset resolves through machine.PresetByName, and a bad
// name fails validation naming the flag and the value.
func TestParsePreset(t *testing.T) {
	tests := []struct {
		in      string
		want    machine.Preset
		wantErr bool
	}{
		{"sandybridge", machine.XeonE5_2450, false},
		{"ivybridge", machine.XeonE5_2660v2, false},
		{"haswell", machine.XeonE5_2650v3, false},
		{"skylake", 0, true},
		{"", 0, true},
	}
	for _, tt := range tests {
		f := flags{presetName: tt.in, modeName: "emulated", modelName: "stall", workload: "memlat",
			threads: 1, iters: 100_000, lines: 1 << 20, minEpoch: 0.1, maxEpoch: 10}
		err := f.validate()
		if (err != nil) != tt.wantErr || (!tt.wantErr && f.preset != tt.want) {
			t.Errorf("-preset %q: preset %v, err %v", tt.in, f.preset, err)
		}
		if err != nil && !strings.Contains(err.Error(), fmt.Sprintf("-preset: unknown preset %q", tt.in)) {
			t.Errorf("-preset %q: error %q does not name the flag and value", tt.in, err)
		}
	}
}

func TestParseMode(t *testing.T) {
	tests := []struct {
		in      string
		want    bench.Mode
		wantErr bool
	}{
		{"native", bench.Native, false},
		{"physical-remote", bench.PhysicalRemote, false},
		{"emulated", bench.Emulated, false},
		{"hardware", 0, true},
	}
	for _, tt := range tests {
		got, err := parseMode(tt.in)
		if (err != nil) != tt.wantErr || got != tt.want {
			t.Errorf("parseMode(%q) = %v, %v", tt.in, got, err)
		}
	}
}

// small is a fast emulated memlat run; tests append the flags under test.
var small = []string{"-workload", "memlat", "-nvm-lat", "300", "-iters", "2000",
	"-lines", "32768", "-min-epoch", "0.05", "-max-epoch", "0.5"}

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestExecuteRejectsBadFlags: every bad flag value, including a bad -config
// file, exits 2 with a one-line error naming the flag before the
// environment is built; a run that fails exits 1.
func TestExecuteRejectsBadFlags(t *testing.T) {
	dir := t.TempDir()
	ini := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, c := range []struct{ flag, value string }{
		{"-preset", "pentium"},
		{"-mode", "quantum"},
		{"-model", "guess"},
		{"-workload", "mystery"},
		{"-nvm-profile", "pcm,optane-dcpmm"},
		{"-nvm-lat", "NaN"},
		{"-nvm-lat", "-300"},
		{"-nvm-bw", "-1"},
		{"-pflush-lat", "Inf"},
		{"-nvm-write", "NaN"},
		{"-min-epoch", "0"},
		{"-max-epoch", "NaN"},
		{"-threads", "0"},
		{"-iters", "-5"},
		{"-lines", "0"},
		{"-config", ini("nan.ini", "[latency]\nread = NaN\n")},
		{"-config", ini("dram.ini", "[latency]\ndram = -100\n")},
		{"-config", filepath.Join(dir, "missing.ini")},
	} {
		code, stdout, stderr := runCLI(t, c.flag, c.value)
		if code != 2 {
			t.Errorf("%s %s: exit = %d, want 2; stderr: %s", c.flag, c.value, code, stderr)
		}
		if !strings.Contains(stderr, c.flag) || strings.Count(stderr, "\n") != 1 {
			t.Errorf("%s %s: stderr %q is not one line naming the flag", c.flag, c.value, stderr)
		}
		if stdout != "" {
			t.Errorf("%s %s: ran despite the bad flag:\n%s", c.flag, c.value, stdout)
		}
	}
	// multilat needs -two-memory: a failed run, not a usage error.
	if code, _, _ := runCLI(t, "-workload", "multilat", "-lines", "4096"); code != 1 {
		t.Errorf("multilat without -two-memory: exit = %d, want 1", code)
	}
}

// TestSmallestSizesRun: every workload runs at the smallest -threads,
// -iters and -lines that validation accepts; the derived per-workload sizes
// are clamped to what the benchmarks need.
func TestSmallestSizesRun(t *testing.T) {
	for _, w := range workloads {
		args := []string{"-workload", w, "-threads", "1", "-iters", "1", "-lines", "1"}
		if w == "multilat" {
			args = append(args, "-two-memory")
		}
		if code, _, stderr := runCLI(t, args...); code != 0 {
			t.Errorf("%s: exit = %d, stderr: %s", w, code, stderr)
		}
	}
}

// TestGraphCTIncludesTrailingEpoch: pagerank, bfs and stream end their
// window with settled clock reads, so the emulated completion time carries
// the injected NVM delay of every trailing epoch instead of dropping it.
func TestGraphCTIncludesTrailingEpoch(t *testing.T) {
	ct := func(workload string, args ...string) time.Duration {
		t.Helper()
		code, stdout, stderr := runCLI(t, append([]string{"-workload", workload}, args...)...)
		if code != 0 {
			t.Fatalf("%s %v: exit = %d, stderr: %s", workload, args, code, stderr)
		}
		m := regexp.MustCompile(workload + `: CT=(\S+)`).FindStringSubmatch(stdout)
		if m == nil {
			t.Fatalf("%s %v: no CT in output:\n%s", workload, args, stdout)
		}
		d, err := time.ParseDuration(m[1])
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	local := strconv.FormatFloat(machine.PresetConfig(machine.XeonE5_2660v2).LocalLat.Nanoseconds(), 'f', -1, 64)
	emulated := []string{"-mode", "emulated", "-nvm-lat", "1000"}
	for _, c := range []struct {
		workload string
		args     []string // the workload's shape, the same in both runs
		baseline []string // a run the emulated one must be slower than
	}{
		{"pagerank", []string{"-iters", "1"}, []string{"-mode", "native"}},
		{"bfs", []string{"-iters", "1"}, []string{"-mode", "native"}},
		// Each STREAM worker runs inside one epoch, so its settled trailing
		// epoch carries all of its delay; at the default preset's local
		// latency there is none.
		{"stream", []string{"-lines", "65536", "-threads", "4"}, []string{"-mode", "emulated", "-nvm-lat", local}},
	} {
		base := ct(c.workload, append(c.args, c.baseline...)...)
		emu := ct(c.workload, append(c.args, emulated...)...)
		if emu <= base {
			t.Errorf("%s: emulated CT %v at -nvm-lat 1000 does not exceed %v with %v", c.workload, emu, base, c.baseline)
		}
	}
}

func TestExecuteRunsSmallMemLat(t *testing.T) {
	code, stdout, stderr := runCLI(t, small...)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "memlat: CT=") {
		t.Errorf("no memlat result:\n%s", stdout)
	}
}

// TestValidateObsFlags: a bad observability flag combination exits 2
// before anything runs, with an error naming the offending flag. The
// retired -ledger-format and -ledger-rotate-mb are among them.
func TestValidateObsFlags(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "ledger.jsonl")
	cases := []struct {
		name string
		args []string
		want string // substring of stderr
	}{
		{"bad format", []string{"-ledger-out", ledger, "-ledger-format", "binary"}, "-ledger-format"},
		{"negative rotate", []string{"-ledger-out", ledger, "-ledger-rotate-mb", "-1"}, "-ledger-rotate-mb"},
		{"rotate without out", []string{"-ledger-rotate-mb", "4"}, "-ledger-rotate-mb"},
		{"linger without serve", []string{"-serve-linger", "1s"}, "-serve-linger needs -serve"},
		{"negative linger", []string{"-serve", ":0", "-serve-linger", "-1s"}, "-serve-linger"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			args := append(append([]string{}, small...), c.args...)
			code, stdout, stderr := runCLI(t, args...)
			if code != 2 {
				t.Fatalf("exit = %d, want 2; stderr: %s", code, stderr)
			}
			if !strings.Contains(stderr, c.want) {
				t.Errorf("stderr %q does not mention %q", stderr, c.want)
			}
			if stdout != "" {
				t.Errorf("ran despite the bad flag:\n%s", stdout)
			}
		})
	}
}

// TestLedgerSinkUnwritablePathRejected: a sink that cannot be opened is a
// usage error before the environment is built.
func TestLedgerSinkUnwritablePathRejected(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no", "such", "dir", "ledger.jsonl")
	code, stdout, stderr := runCLI(t, append(small, "-ledger-out", bad)...)
	if code != 2 || !strings.Contains(stderr, "-ledger-out") || stdout != "" {
		t.Errorf("exit = %d, stderr %q, stdout %q; want exit 2 naming -ledger-out, nothing run", code, stderr, stdout)
	}
}

// TestExecuteStreamsLedger: a small run with -ledger-out must stream a
// dense, decodable epoch ledger.
func TestExecuteStreamsLedger(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	if code, _, stderr := runCLI(t, append(small, "-ledger-out", path)...); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	recs, err := obs.ReadLedger(path)
	if err != nil {
		t.Fatalf("ReadLedger: %v", err)
	}
	if len(recs) == 0 {
		t.Fatal("ledger stream is empty")
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i) {
			t.Fatalf("record %d has seq %d", i, rec.Seq)
		}
	}
}

// TestTraceRendersStreamedLedger: with -ledger-out, the in-memory ledger
// keeps only the newest obs.DefaultTailRing records, so a run that closes
// more epochs than that must still put every one of them in the -trace
// file, and say it dropped none.
func TestTraceRendersStreamedLedger(t *testing.T) {
	dir := t.TempDir()
	ledgerPath, tracePath := filepath.Join(dir, "ledger.jsonl"), filepath.Join(dir, "trace.json")
	code, _, stderr := runCLI(t, "-workload", "multithreaded", "-threads", "4", "-iters", "120000",
		"-ledger-out", ledgerPath, "-trace", tracePath)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	recs, err := obs.ReadLedger(ledgerPath)
	if err != nil {
		t.Fatalf("ReadLedger: %v", err)
	}
	if len(recs) <= obs.DefaultTailRing {
		t.Fatalf("run closed %d epochs, want more than the %d-record tail ring", len(recs), obs.DefaultTailRing)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Cat string `json:"cat"`
			Ph  string `json:"ph"`
		} `json:"traceEvents"`
		OtherData struct {
			Retained int `json:"epochs_retained"`
			Dropped  int `json:"epochs_dropped"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	slices := 0
	for _, ev := range tr.TraceEvents {
		if ev.Cat == "epoch" && ev.Ph == "X" {
			slices++
		}
	}
	if slices != len(recs) || tr.OtherData.Retained != len(recs) || tr.OtherData.Dropped != 0 {
		t.Errorf("trace has %d epoch slices (retained %d, dropped %d), ledger file has %d records",
			slices, tr.OtherData.Retained, tr.OtherData.Dropped, len(recs))
	}
}

// TestValidateAsymFlags: the asymmetric-model flags are validated upfront,
// and the profile error must name the known profiles so a typo fails
// helpfully.
func TestValidateAsymFlags(t *testing.T) {
	valid := func(nvmWrite float64, profile string) error {
		f := flags{presetName: "ivybridge", modeName: "emulated", modelName: "stall", workload: "memlat",
			threads: 1, iters: 100_000, lines: 1 << 20, minEpoch: 0.1, maxEpoch: 10,
			nvmWriteNS: nvmWrite, nvmProfile: profile}
		return f.validate()
	}
	if err := valid(0, ""); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	if err := valid(680, "optane-dcpmm"); err != nil {
		t.Fatalf("valid asym flags rejected: %v", err)
	}
	if err := valid(-1, ""); err == nil {
		t.Error("negative -nvm-write accepted")
	}
	err := valid(0, "xpoint")
	if err == nil {
		t.Fatal("unknown -nvm-profile accepted")
	}
	for _, name := range machine.NVMProfileNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("profile error %q does not name %q", err, name)
		}
	}
}

// TestExecuteAsymProfileRun: a small run under a calibrated NVM profile must
// succeed end to end — the profile's store latency, bandwidth caps and
// access granularity all flow into the environment, and -nvm-write narrows
// the store latency on top.
func TestExecuteAsymProfileRun(t *testing.T) {
	code, stdout, stderr := runCLI(t, append(small, "-nvm-profile", "pcm", "-nvm-write", "900")...)
	if code != 0 {
		t.Fatalf("exit = %d under -nvm-profile pcm, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "store model: ") {
		t.Errorf("no store-model line:\n%s", stdout)
	}
}

// TestNVMProfileWriteCurveSkipsMainThread: the emulator indexes the
// write-collapse curve by registered threads, and the non-writing main
// thread is one of them. Under -nvm-profile optane-dcpmm, -threads 4 workers
// must end on the profile's 4-writer entry (its 13.9 GB/s peak), not the
// 5-writer one.
func TestNVMProfileWriteCurveSkipsMainThread(t *testing.T) {
	f := flags{presetName: "ivybridge", modeName: "emulated", modelName: "stall",
		workload: "multithreaded", nvmLatNS: 500, nvmProfile: "optane-dcpmm",
		threads: 4, iters: 200, lines: 4096, minEpoch: 0.1, maxEpoch: 10, seed: 42}
	if err := f.validate(); err != nil {
		t.Fatal(err)
	}
	env, err := newEnv(&f)
	if err != nil {
		t.Fatal(err)
	}
	if err := dispatch(env, &f, io.Discard); err != nil {
		t.Fatal(err)
	}
	prof, _ := machine.NVMProfileByName("optane-dcpmm")
	fourWriters := prof.WriteBandwidthByThreads[3]
	for s, sock := range env.Mach.Sockets() {
		if got, want := sock.Ctrl.WriteThrottle(), sock.Ctrl.RegisterForBandwidth(fourWriters); got != want {
			t.Errorf("socket %d write register = %d, want %d (the 4-writer %.1f GB/s entry)",
				s, got, want, fourWriters/1e9)
		}
	}
}
