#!/usr/bin/env bash
# Benchmark-ledger gate: re-measure the round loop at 1k/10k/100k
# GPUs and compare against the committed BENCH_core.json. Fails (exit
# 1) when allocs/round regress beyond the tolerance, when the spans-on
# allocation tax exceeds the committed tax plus the tolerance, or when
# base allocs/round at the 100k-GPU row breaches the absolute cap —
# the hard floor that keeps the incremental engine from quietly
# sliding back toward per-round full rescans or per-round scratch
# (the rescan engine burns ~620k allocs/round at that row; the
# incremental engine 266, the cap sits 20 % above that). Raw
# ns/round is informational only (machine-dependent and noisy at
# sub-millisecond rounds). Regenerate the ledger after an intentional
# change with:
#
#   go run ./cmd/gfbench -ledger -update
set -euo pipefail
cd "$(dirname "$0")/.."

go run ./cmd/gfbench -ledger -check -tol "${BENCH_TOL:-0.15}" -alloc-cap "${BENCH_ALLOC_CAP:-320}"
