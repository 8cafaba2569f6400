#!/usr/bin/env bash
# A/B: alternating parent/change pairs with identical harness code
# (choosing-metrics §8).
#
#   bench/ab.sh <parent-tree> <change-tree> [pairs=10] [seed=42] [workloads...]
#
# Both arguments are checkouts of this repository (two `git worktree`s
# or two clones). Both sides must be measured by the same benchmark
# code: the script refuses trees whose cmd/gfperf or bench/run.sh
# differ (a change that edits the benchmark is not an A/B,
# choosing-metrics §6.2) and copies the harness into a parent that
# predates it. Each pair runs every workload once on each side with
# `--trace 0`, alternating which side goes first. Prints, per workload
# and end-to-end metric: each side's quartiles and median, the change
# in the median, and pair wins (ties count for neither). A gain is
# claimable only at >= 9/10 wins and a median difference larger than
# the parent's own quartile spread.
set -euo pipefail

if [ $# -lt 2 ]; then
	sed -n '2,17p' "$0" >&2
	exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
pairs="${3:-10}"
seed="${4:-42}"
shift $(($# < 4 ? $# : 4))
here="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	mapfile -t workloads < <(python3 -c "
import json
print('\n'.join(w['name'] for w in json.load(open('$here/BENCHMARK.json'))['workloads']))")
fi
seconds="$(python3 -c "import json; print(json.load(open('$here/BENCHMARK.json'))['run_seconds'])")"

# Identical harness on both sides. A parent that predates the benchmark
# gets the change's copy; a parent whose harness differs is refused.
if [ ! -d "$parent/cmd/gfperf" ]; then
	echo "ab: parent has no harness, copying the change's into it" >&2
	mkdir -p "$parent/bench"
	cp -r "$change/cmd/gfperf" "$parent/cmd/gfperf"
	cp "$change/bench/run.sh" "$parent/bench/run.sh"
	cp "$change/BENCHMARK.json" "$parent/BENCHMARK.json"
elif ! diff -rq "$parent/cmd/gfperf" "$change/cmd/gfperf" >&2 ||
	! diff -q "$parent/bench/run.sh" "$change/bench/run.sh" >&2; then
	echo "ab: the two trees' harnesses differ; a change that edits the benchmark is not an A/B" >&2
	exit 2
fi

out="$here/bench/out/ab-$(date +%Y%m%d-%H%M%S)"
mkdir -p "$out"
echo "ab: parent=$parent change=$change pairs=$pairs seed=$seed seconds=$seconds -> $out" >&2

run_side() { # side tree workload pair
	bash "$2/bench/run.sh" --workload "$3" --seed "$seed" --seconds "$seconds" --trace 0 \
		2>>"$out/stderr.log" | tail -n 1 >"$out/$1-$3-$4.json"
}

for w in "${workloads[@]}"; do
	for ((i = 1; i <= pairs; i++)); do
		if ((i % 2)); then
			run_side parent "$parent" "$w" "$i"
			run_side change "$change" "$w" "$i"
		else
			run_side change "$change" "$w" "$i"
			run_side parent "$parent" "$w" "$i"
		fi
		echo "ab: $w pair $i/$pairs done" >&2
	done
done

python3 - "$out" "$pairs" "$here/BENCHMARK.json" "${workloads[@]}" <<'PY'
import json, statistics, sys
out, pairs, manifest, workloads = sys.argv[1], int(sys.argv[2]), json.load(open(sys.argv[3])), sys.argv[4:]
defs = {d["name"]: d for d in manifest["end_to_end"]}

def quart(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], statistics.median(xs), q[2]

for w in workloads:
    sides = {"parent": {}, "change": {}}
    wrong = 0
    for side in sides:
        for i in range(1, pairs + 1):
            r = json.load(open(f"{out}/{side}-{w}-{i}.json"))
            wrong += (not r["correct"]) or r["failed"] > 0
            for name, v in r["metrics"].items():
                sides[side].setdefault(name, []).append(v["value"])
    print(f"\n== {w}  ({pairs} pairs, {wrong} runs with failed checks)")
    print(f"  {'metric':20s} {'parent q1/median/q3':>38s} {'change q1/median/q3':>38s} {'delta':>8s} {'wins':>7s}  verdict")
    for name, d in defs.items():
        p, c = sides["parent"][name], sides["change"][name]
        pq, cq = quart(p), quart(c)
        better = (lambda a, b: a < b) if d["better"] == "lower" else (lambda a, b: a > b)
        wins = sum(better(cv, pv) for pv, cv in zip(p, c))
        losses = sum(better(pv, cv) for pv, cv in zip(p, c))
        delta = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
        worse = delta if d["better"] == "lower" else -delta
        spread = pq[2] - pq[0]
        if worse > d["bound"]:
            verdict = "REGRESSION (beyond bound)"
        elif spread > d["bound"] * abs(pq[1]):
            verdict = "unresolved (parent spread wider than bound)"
        elif wins >= 0.9 * pairs and abs(cq[1] - pq[1]) > spread:
            verdict = "gain"
        else:
            verdict = "no change"
        fmt = lambda q: "/".join(f"{x:.5g}" for x in q)
        print(f"  {name:20s} {fmt(pq):>38s} {fmt(cq):>38s} {delta:+8.2%} {wins:3d}-{losses:<3d}  {verdict}")
PY
