# Build/test/bench entry points. `make` runs vet + race tests (the tier-1
# gate plus the race detector over the parallel runner); `make ci` adds the
# documentation and formatting checks.

GO ?= go
GOFMT ?= gofmt

.PHONY: all build vet test bench-quick bench bench-alloc bench-compare bench-smoke serve-smoke traffic-smoke asym-smoke profile-smoke full-results docs-check ci

all: vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test -race ./...

# docs-check gates the documentation: no dead relative links anywhere in
# the Markdown tree (README, DESIGN, doc/ book, ...), gofmt-clean sources,
# and a clean vet.
docs-check:
	$(GO) run ./cmd/docscheck .
	@out=$$($(GOFMT) -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...

ci: docs-check test bench-alloc bench-smoke serve-smoke traffic-smoke asym-smoke profile-smoke

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
# the -write-latency/-nvm-profile overrides must land, and bad values must
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
# micro-benchmarks (cache walk, core load, kernel dispatch and the simos
# thread handoff, emulated epoch close, ledger append), which must report 0
# allocs/op on steady-state paths; see doc/performance.md.
bench-quick:
	$(GO) run ./cmd/quartzbench -exp table2,fig8 -scale quick -parallel 4
	$(GO) test -bench='BenchmarkCache|BenchmarkPrefetcher' -benchtime=100000x -run=^$$ ./internal/cache
	$(GO) test -bench='BenchmarkCore' -benchtime=100000x -run=^$$ ./internal/cpu
	$(GO) test -bench='BenchmarkKernel' -benchtime=100000x -run=^$$ ./internal/sim
	$(GO) test -bench='BenchmarkSimContextSwitch' -benchtime=100000x -run=^$$ .
	$(GO) test -bench='BenchmarkEmulated' -benchtime=10000x -run=^$$ ./internal/bench
	$(GO) test -bench='BenchmarkEpochClosedStreaming' -benchtime=100000x -run=^$$ ./internal/obs
	$(GO) test -bench='BenchmarkWorkload' -benchtime=100000x -run=^$$ ./internal/workload

# bench-alloc runs the allocation-regression gates: testing.AllocsPerRun
# asserting zero allocations on the steady-state epoch-close, batched
# load/store, prefetcher, ledger-append, and traffic measured-op paths. Runs
# without -race (the race runtime allocates); `make test` still covers these
# files race-enabled with the gates skipped.
bench-alloc:
	$(GO) test -run 'NoAllocs' -count=1 ./internal/bench ./internal/cache ./internal/obs ./internal/obs/vtprof ./internal/workload

# bench-compare times the quick suite experiment by experiment (min of
# three passes each) with intra-experiment trial parallelism on, diffs
# against the committed BENCH_7 artifact, and rewrites it — the
# perf-trajectory record. Fails (after writing, so the numbers survive for
# inspection) if the quick suite regressed more than 5% against the
# committed artifact. Wall times on a shared host drift day to day
# (doc/performance.md shows ~8% across two days on identical code), so
# treat a small positive delta as noise unless an interleaved A/B confirms
# it; the committed artifact must come from a same-day baseline run.
bench-compare:
	$(GO) run ./cmd/benchcompare -exp fig11,fig12,fig13 -scale quick -runs 3 -trial-parallel 4 -baseline BENCH_7.json -o BENCH_7.json -fail-above 5

# bench-smoke exercises the bench-compare flow on one fast experiment
# without touching the committed artifact (the ci hook).
bench-smoke:
	$(GO) run ./cmd/benchcompare -exp table2 -scale quick -runs 1 -o ""

# bench runs every paper artifact as testing.B benchmarks at quick scale.
bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# full-results regenerates EXPERIMENTS.md's numbers (slow).
full-results:
	$(GO) run ./cmd/quartzbench -exp all -scale full -parallel 0 -progress -o full_results.txt
