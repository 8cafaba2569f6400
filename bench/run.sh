#!/usr/bin/env bash
# The benchmark driver's entry point (BENCHMARK.json "command"): build
# cmd/gfperf from source into .bench_build/ and run it with the driver's
# arguments, e.g.
#
#   bash bench/run.sh --workload gpu-scale --seed 7 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache) stays inside the
# checkout. Without arguments it prints the full report for seed 42.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"

# Keep the go command's own writes in the checkout too: build cache,
# its scratch directory, module cache (unused: the module has no
# dependencies) and the toolchain's telemetry counters, which follow
# XDG_CONFIG_HOME.
mkdir -p "$build/tmp"
export GOTMPDIR="$build/tmp"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$root/cmd/gfperf" && go build -o "$build/gfperf" .)
cd "$root"
exec "$build/gfperf" "$@"
