#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash benchmark/run.sh --workload lmbench-mix --seed 1 --seconds 12 --trace 0
#
# The Go build cache, the go command's own config (telemetry counters
# included) and the binary live under .bench_build/ in the current
# directory, so the run reads and writes nothing outside the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly

(cd benchmark && go build -o "$out/protego-benchmark" .)
exec "$out/protego-benchmark" "$@"
