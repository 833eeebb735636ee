# Build/test/bench entry points. `make` runs vet + race tests (the tier-1
# gate plus the race detector over the parallel runner); `make ci` adds the
# documentation and formatting checks.

GO ?= go
GOFMT ?= gofmt

.PHONY: all build vet test bench-quick bench bench-alloc fuzz-smoke perf-smoke serve-smoke traffic-smoke asym-smoke profile-smoke full-results docs-check ci

all: vet test

build:
	$(GO) build ./...

# vet also checks the tree as arm64 builds it, so the Go fallbacks for the
# amd64 assembly (internal/cache's host prefetch) keep compiling. Both are
# 64-bit: the tree is 64-bit only (internal/machine's NodeShift guard stops
# a 32-bit build), so there is no 32-bit target to vet.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

test:
	$(GO) test -race ./...

# docs-check gates the documentation: no dead relative links anywhere in
# the Markdown tree (README, DESIGN, doc/ book, ...), no CLI flag in a
# documented command line that the CLI does not define, no export only
# tests use, gofmt-clean sources, and a clean vet.
docs-check:
	$(GO) run ./cmd/docscheck .
	$(GO) test ./cmd/docscheck
	@out=$$($(GOFMT) -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...

ci: docs-check test bench-alloc fuzz-smoke perf-smoke serve-smoke traffic-smoke asym-smoke profile-smoke

# serve-smoke end-to-end checks the live introspection plane: quartzbench
# -serve on an ephemeral port with a streaming ledger sink, probed by
# quartztop -once (validates /metrics, /ledger and /runs).
serve-smoke:
	sh scripts/serve-smoke.sh

# traffic-smoke end-to-end checks the traffic scenario engine: a narrowed
# traffic-sweep through quartzbench -serve, asserting a well-formed SLO
# report, live traffic metrics on the probe, and a dense streamed ledger.
traffic-smoke:
	sh scripts/traffic-smoke.sh

# asym-smoke end-to-end checks the asymmetric read/write model: both
# calibrated-profile sweeps must diverge in the documented directions
# (Optane W/R < 1 with a bandwidth collapse past 4 writers, PCM W/R > 1),
# the -nvm-write/-nvm-profile overrides must land, and bad values must
# exit 2 upfront. The store-stall 0-alloc gate runs under bench-alloc.
asym-smoke:
	sh scripts/asym-smoke.sh

# profile-smoke end-to-end checks the virtual-time profiler: a narrowed
# traffic-sweep with -vtprof and -serve, asserting `go tool pprof -top`
# parses the merged suite profile with nonzero inject_read time and that
# the live /vtprof endpoint serves the profile. The profiler's charge-path
# 0-alloc gate runs under bench-alloc.
profile-smoke:
	sh scripts/profile-smoke.sh

# bench-quick regenerates two representative artifacts on the parallel
# runner — a fast smoke test of the whole stack — and runs the hot-path
# micro-benchmarks (cache walk, including BenchmarkCacheFill/20M-20w-ahead,
# which warms each set 8 ops before its probe, and BenchmarkCacheContains,
# the presence probe of the core's prefetch filter; the prefetcher's
# streaming BenchmarkPrefetcherObserve and pointer-chase
# BenchmarkPrefetcherObserveRandom; core load, kernel dispatch and the simos
# thread handoff, emulated epoch close, ledger append), which must report 0
# allocs/op on steady-state paths, plus the preset machine build, whose
# B/op must stay in the tens of KB (no cache builds its lines before its
# first fill), and the MemLat driver over 64 MiB chains (host ns per
# simulated load, 0 allocs/op); see doc/performance.md.
bench-quick:
	$(GO) run ./cmd/quartzbench -exp table2,fig8 -scale quick -parallel 4
	$(GO) test -bench='BenchmarkCache|BenchmarkPrefetcher' -benchtime=100000x -run=^$$ ./internal/cache
	$(GO) test -bench='BenchmarkCore' -benchtime=100000x -run=^$$ ./internal/cpu
	$(GO) test -bench='BenchmarkMachineBuild' -benchtime=1000x -run=^$$ ./internal/machine
	$(GO) test -bench='BenchmarkKernel' -benchtime=100000x -run=^$$ ./internal/sim
	$(GO) test -bench='BenchmarkSimContextSwitch' -benchtime=100000x -run=^$$ .
	$(GO) test -bench='BenchmarkEmulated' -benchtime=10000x -run=^$$ ./internal/bench
	$(GO) test -bench='BenchmarkMemLatRun' -benchtime=3x -run=^$$ ./internal/bench
	$(GO) test -bench='BenchmarkEpochClosedStreaming' -benchtime=100000x -run=^$$ ./internal/obs
	$(GO) test -bench='BenchmarkWorkload' -benchtime=100000x -run=^$$ ./internal/workload

# bench-alloc runs the allocation-regression gates: testing.AllocsPerRun
# asserting zero allocations on the steady-state epoch-close, batched
# load/store, simos lock and memory-op, signal delivery, prefetcher,
# ledger-append, traffic measured-op, and MemLat driver paths. Runs
# without -race (the race runtime allocates); `make test` still covers these
# files race-enabled with the gates skipped.
bench-alloc:
	$(GO) test -run 'NoAllocs' -count=1 ./internal/bench ./internal/cache ./internal/obs ./internal/obs/vtprof ./internal/simos ./internal/workload

# fuzz-smoke runs each native fuzz target for 5 s past its seed corpus (the
# seeds alone run under `go test ./...`): the cache and the stream
# prefetcher against their reference models, the packed MemLat visit order
# against a successor chase, the nvmemul.ini parser, the JSONL ledger
# codec and quartzbench's -traffic-clients/-mixes/-lats lists. Minimizing
# a newly interesting input is capped at 100 runs so the 5 s go to
# fuzzing; a failing input is still written to the package's testdata/fuzz.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzCacheMatchesReference$$' -fuzztime 5s -fuzzminimizetime 100x ./internal/cache
	$(GO) test -run '^$$' -fuzz '^FuzzPrefetcherMatchesReference$$' -fuzztime 5s -fuzzminimizetime 100x ./internal/cache
	$(GO) test -run '^$$' -fuzz '^FuzzPermutationOrder$$' -fuzztime 5s -fuzzminimizetime 100x ./internal/bench
	$(GO) test -run '^$$' -fuzz '^FuzzParseINI$$' -fuzztime 5s -fuzzminimizetime 100x ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzLedgerJSONL$$' -fuzztime 5s -fuzzminimizetime 100x ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzTrafficOverrides$$' -fuzztime 5s -fuzzminimizetime 100x ./cmd/quartzbench

# perf-smoke drives the repository benchmark (cmd/quartzperf) once over all
# five workloads at a tenth of a second each. It builds through the same
# run.sh the benchmark uses and exits 1 if any seed-1 simulated output
# differs from cmd/quartzperf/testdata/expected.json.
perf-smoke:
	bash cmd/quartzperf/run.sh --workload all --seed 1 --seconds 0.1 --trace 0

# bench runs every paper artifact as testing.B benchmarks at quick scale.
bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# full-results regenerates EXPERIMENTS.md's numbers (slow).
full-results:
	$(GO) run ./cmd/quartzbench -exp all -scale full -parallel 0 -progress -o full_results.txt
