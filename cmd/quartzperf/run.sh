#!/usr/bin/env bash
# Builds cmd/quartzperf from the checkout in the working directory and runs
# it with the given flags, e.g.
#
#   bash cmd/quartzperf/run.sh --workload kv-read --seed 1 --seconds 12 --trace 0
#
# The binary, the Go build cache and every temporary file stay under
# .bench_build/ in the checkout; nothing is fetched from the network.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal ]]; then
	echo "quartzperf: run from the root of a quartz checkout (go.mod and internal/ not found)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/quartzperf" ./cmd/quartzperf
exec "$out/quartzperf" "$@"
