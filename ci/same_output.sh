#!/usr/bin/env bash
# The same-output check of an engine or policy refactor: build the
# binaries from a parent tree and from this one and compare everything
# they print that a behaviour-preserving change must leave alone.
#
#   ci/same_output.sh <parent-tree>     # e.g. a `git clone` of the parent commit
#
# Compared: gfsim stdout and its -trace-out CSV and JSON on the three
# committed scenarios; gfsim stdout and trace CSV of each baseline policy
# on a backlogged 72-GPU cluster; the share timeline as
# examples/workconservation renders it and as gfbench's E7 tabulates
# it, and gfbench's E6 and E12 tables (timing lines dropped);
# the digest of one untraced gfperf rep per workload for seeds 42 and 7;
# the gfdist chaos, netchaos and gfsoak digests. Any
# difference there exits non-zero. gfperf's two deterministic counters
# (allocs_per_round, alloc_kb_per_round) are printed side by side and not
# gated: a refactor may move them, and the table is where that shows.
set -euo pipefail

[ $# -eq 1 ] && [ -d "$1" ] || { echo "usage: $0 <parent-tree>" >&2; exit 2; }
parent="$(cd "$1" && pwd)"
change="$(cd "$(dirname "$0")/.." && pwd)"

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

for side in parent change; do
  mkdir -p "$TMP/$side"
  (cd "${!side}" && go build -o "$TMP/$side/" ./cmd/gfsim ./cmd/gfdist ./cmd/gfsoak ./cmd/gfbench ./examples/workconservation)
  bash "${!side}/bench/run.sh" -manifest >/dev/null # builds <tree>/.bench_build/gfperf
done

fail=0
printf '%-42s %-26s %-26s %s\n' check parent change verdict
row() { # name, parent value, change value, gate (1: a difference fails)
  local verdict=same
  if [ "$2" != "$3" ]; then
    verdict=differs
    if [ "$4" = 1 ]; then verdict=DIFFERS; fail=1; fi
  fi
  printf '%-42s %-26s %-26s %s\n' "$1" "$2" "$3" "$verdict"
}
sum() { md5sum | cut -c1-12; }

# gfsim: stdout names the trace file, so both sides write to the same
# relative path from their own directory.
for sc in trading failover faulty; do
  for ext in csv json; do
    for side in parent change; do
      (cd "$TMP/$side" && ./gfsim -scenario "$change/scenarios/$sc.json" -trace-out "t.$ext" >"out.$sc.$ext")
      cp "$TMP/$side/t.$ext" "$TMP/$side/trace.$sc.$ext"
    done
    row "gfsim $sc stdout ($ext)" "$(sum <"$TMP/parent/out.$sc.$ext")" "$(sum <"$TMP/change/out.$sc.$ext")" 1
    row "gfsim $sc trace.$ext" "$(sum <"$TMP/parent/trace.$sc.$ext")" "$(sum <"$TMP/change/trace.$sc.$ext")" 1
  done
done

# The baselines, on a cluster they keep backlogged (on the default 200
# GPUs static quota idles at 13 % utilization): stdout and trace CSV.
for pol in tiresias gandiva-rr static fifo; do
  for side in parent change; do
    (cd "$TMP/$side" && ./gfsim -policy "$pol" -cluster k80=6x4,p100=6x4,v100=6x4 -trace-out t.csv >"out.$pol")
    cp "$TMP/$side/t.csv" "$TMP/$side/trace.$pol.csv"
  done
  row "gfsim -policy $pol stdout" "$(sum <"$TMP/parent/out.$pol")" "$(sum <"$TMP/change/out.$pol")" 1
  row "gfsim -policy $pol trace.csv" "$(sum <"$TMP/parent/trace.$pol.csv")" "$(sum <"$TMP/change/trace.$pol.csv")" 1
done

# The share timeline: the one program that renders it, and E7's table;
# E6 and E12, the experiments that run the baselines.
for side in parent change; do
  "$TMP/$side/workconservation" >"$TMP/$side/wc.out"
  for e in E6 E7 E12; do
    "$TMP/$side/gfbench" -exp "$e" | grep -v "^($e ·" >"$TMP/$side/$e.out"
  done
done
row "workconservation stdout" "$(sum <"$TMP/parent/wc.out")" "$(sum <"$TMP/change/wc.out")" 1
for e in E6 E7 E12; do
  row "gfbench $e stdout (no timing line)" "$(sum <"$TMP/parent/$e.out")" "$(sum <"$TMP/change/$e.out")" 1
done

# gfperf: one untraced rep per workload and seed, run from its own tree.
field() { sed -n "s/.*\"$1\":\"\{0,1\}\([^,\"}]*\).*/\1/p" "$2"; }
count() { printf '%.1f' "$(field "$1" "$2")"; } # the counters repeat to about a tenth
for seed in 42 7; do
  for w in paper-trace gpu-scale tenant-scale fault-churn sweep-grid dist-hub; do
    for side in parent change; do
      (cd "${!side}" && .bench_build/gfperf -child -workload "$w" -mode untraced -seed "$seed" \
        -out "$TMP/$side/perf" >"$TMP/$side/perf.json")
    done
    p="$TMP/parent/perf.json" c="$TMP/change/perf.json"
    row "gfperf $w/$seed digest" "$(field digest "$p" | cut -c1-12)" "$(field digest "$c" | cut -c1-12)" 1
    row "gfperf $w/$seed allocs_per_round" "$(count allocs_per_round "$p")" "$(count allocs_per_round "$c")" 0
    row "gfperf $w/$seed alloc_kb_per_round" "$(count alloc_kb_per_round "$p")" "$(count alloc_kb_per_round "$c")" 0
  done
done

# gfdist chaos / netchaos and gfsoak: the digests they print.
digests() { grep -o '\(baseline\|faulted\|digest=\) *[0-9a-f]\{12\}' | tr -s ' =' '  ' | cut -d' ' -f2 | tr '\n' ' '; }
both() { # name, command line run against each side's binaries
  local name=$1 side
  shift
  for side in parent change; do
    mkdir -p "$TMP/$side/snap"
    (cd "$TMP/$side" && "./$@" 2>&1) >"$TMP/$side/dist.out" || { echo "$name failed on $side" >&2; cat "$TMP/$side/dist.out" >&2; exit 1; }
  done
  row "$name" "$(digests <"$TMP/parent/dist.out")" "$(digests <"$TMP/change/dist.out")" 1
}
both "gfdist chaos 42" gfdist chaos -seed 42
both "gfdist netchaos 911" gfdist chaos -netchaos -seed 911 -snapshot-dir snap
both "gfsoak 42" gfsoak -seed 42 -iters 2 -hours 6
both "gfsoak 7" gfsoak -seed 7 -iters 2 -hours 6

if [ "$fail" = 1 ]; then
  echo "same-output check FAILED: a digest, stdout or trace differs from $parent" >&2
  exit 1
fi
echo "same-output check passed against $parent"
