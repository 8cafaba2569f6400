#!/usr/bin/env bash
# End-to-end smoke tests of the binaries, one build: gfsim, gfdist,
# gfsoak and gfflight are built once (with the race detector) into a
# temp dir, then each check below drives them and asserts on what they
# print, serve and write.
#
#   ci/smoke.sh                 # every check
#   ci/smoke.sh flight soak     # the named checks only
set -euo pipefail
cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
cleanup() {
  kill "${CENTRAL_PID:-}" "${AGENT_PID:-}" 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

go build -race -o "$TMP/" ./cmd/gfsim ./cmd/gfdist ./cmd/gfsoak ./cmd/gfflight

# obs: the live observability surface. Start a real gfdist central +
# agent deployment with -http, then assert that /healthz answers,
# /metrics is Prometheus text containing the per-phase round histograms
# and per-user share gauges, and /debug/sched returns the
# explained-decision JSON.
smoke_obs() {
  local HTTP=127.0.0.1:9191 LISTEN=127.0.0.1:7171

  # A deliberately long workload so the deployment is still running
  # (and scrapeable) while we probe; cleanup kills it.
  "$TMP/gfdist" central -listen "$LISTEN" -agents 1 -users 2 -jobs 200 \
    -mean-hours 4 -rounds 1000000 -http "$HTTP" &
  CENTRAL_PID=$!

  # /healthz must answer while the central is still waiting for agents.
  for i in $(seq 1 50); do
    if curl -fsS "http://$HTTP/healthz" >/dev/null 2>&1; then break; fi
    sleep 0.2
  done
  curl -fsS "http://$HTTP/healthz" | grep -q ok
  echo "healthz: ok"

  # Phase histogram series are pre-registered, so /metrics must already
  # carry them before any round has run.
  METRICS=$(curl -fsS "http://$HTTP/metrics")
  echo "$METRICS" | grep -q '^# TYPE gf_round_phase_seconds histogram'
  echo "$METRICS" | grep -q 'gf_round_phase_seconds_bucket{phase="decide",le="0.001"}'
  echo "metrics: phase histograms present before first round"

  "$TMP/gfdist" agent -connect "$LISTEN" -name agent-0 -gen V100 -gpus 4 &
  AGENT_PID=$!

  # Wait for scheduling to make progress; keep the scrape that saw it.
  ROUNDS=0
  for i in $(seq 1 100); do
    METRICS=$(curl -fsS "http://$HTTP/metrics")
    ROUNDS=$(echo "$METRICS" | awk '/^gf_rounds_total/ {print $2}')
    if [ "${ROUNDS:-0}" != "0" ] && [ -n "${ROUNDS:-}" ]; then break; fi
    sleep 0.2
  done
  [ "${ROUNDS:-0}" != "0" ] || { echo "no rounds completed"; exit 1; }
  echo "$METRICS" | grep -q 'gf_round_phase_seconds_count{phase="dispatch"}'
  echo "$METRICS" | grep -q 'gf_user_usage_fraction{user="user01"}'
  echo "$METRICS" | grep -q 'gf_protocol_events_total{event="plan_sent"}'
  echo "metrics: live series present after $ROUNDS rounds"

  SCHED=$(curl -fsS "http://$HTTP/debug/sched")
  echo "$SCHED" | grep -q '"decisions"'
  echo "$SCHED" | grep -q '"reason"'
  echo "debug/sched: explained decisions present"

  kill "$CENTRAL_PID" "$AGENT_PID" 2>/dev/null || true
  wait 2>/dev/null || true
}

# flight: force an audit violation with gfsim's -audit-drill, assert the
# run fails AND leaves a parseable flight.json naming the drill, then
# check gfflight can summarize it and convert its spans to a Chrome
# trace with events in it.
smoke_flight() {
  # The drill injects a synthetic violation at round 3; gfsim must exit
  # nonzero and the deferred flight dump must land before the exit.
  if "$TMP/gfsim" -users 2 -jobs 4 -hours 2 \
      -flight "$TMP/flight.json" -audit-drill 3 >/dev/null 2>"$TMP/stderr.txt"; then
    echo "audit drill did not fail the run"; exit 1
  fi
  grep -q "audit drill" "$TMP/stderr.txt"
  echo "drill: run failed as expected"

  [ -s "$TMP/flight.json" ] || { echo "no flight.json written"; exit 1; }
  "$TMP/gfflight" -q "$TMP/flight.json"
  echo "flight.json: parseable"

  SUMMARY=$("$TMP/gfflight" "$TMP/flight.json")
  echo "$SUMMARY" | grep -q "audit-violation"
  echo "$SUMMARY" | grep -q "drill"
  echo "$SUMMARY" | grep -q "round 3"
  echo "flight.json: names the drill violation and retains rounds"

  "$TMP/gfflight" -q -chrome "$TMP/trace.json" "$TMP/flight.json"
  grep -q '"traceEvents"' "$TMP/trace.json"
  grep -q '"ph"' "$TMP/trace.json"
  echo "chrome trace: events present"
}

# chaos: the fault-tolerant distributed runtime. Run the in-process
# fault-injection harness (agent kill + rejoin, the central's sends
# dropped through netchaos, central crash + snapshot restore) on two
# fixed seeds and require byte-identical per-user usage accounting
# versus the undisturbed baseline. gfdist chaos exits nonzero on any divergence,
# lost job, or audit violation.
smoke_chaos() {
  local SNAPDIR="$TMP/snap-chaos"
  for SEED in 42 7; do
    echo "=== chaos seed $SEED ==="
    rm -rf "$SNAPDIR"; mkdir -p "$SNAPDIR"
    "$TMP/gfdist" chaos \
      -seed "$SEED" \
      -kill-at 1 -restart-after 2 \
      -snapshot-at 2 -snapshot-dir "$SNAPDIR" \
      -drop-prob 0.3 -max-drops 2
    # The restore path must have actually written and consumed a snapshot.
    [ -f "$SNAPDIR/central.snap.json" ] || { echo "no snapshot written"; exit 1; }
  done
}

# netchaos: the partition-tolerant control plane. Run the deterministic
# network fault matrix (duplication, reordering, corruption, a dropped
# plan, delayed straggler reports, a one-way partition, a full
# partition, and a central crash + snapshot restore mid-partition) and
# require
#
#   1. per-user usage digests byte-identical to the undisturbed
#      baseline on every seed (gfdist exits nonzero on divergence), and
#   2. the same seed reproducing the same digest across two runs
#      (hash-coin determinism regardless of goroutine interleaving).
#
# The distrib test suite's protocol unit tests (idempotent replay,
# epoch fencing, lease expiry, straggler cutoff) run under -race too.
smoke_netchaos() {
  local SNAPDIR="$TMP/snap-netchaos"
  digest_of() {
    # Last "faulted <hex>" digest line of a run.
    awk '/^ *faulted /{d=$2} END{print d}'
  }
  for SEED in 911 42 7; do
    echo "=== netchaos matrix seed $SEED ==="
    rm -rf "$SNAPDIR"; mkdir -p "$SNAPDIR"
    OUT1=$("$TMP/gfdist" chaos -netchaos -seed "$SEED" -snapshot-dir "$SNAPDIR")
    echo "$OUT1"
    # The mid-partition restore must have actually consumed a snapshot.
    [ -f "$SNAPDIR/central.snap.json" ] || { echo "no snapshot written"; exit 1; }
    # Determinism: a second run of the same seed lands on the same digest.
    rm -rf "$SNAPDIR"; mkdir -p "$SNAPDIR"
    OUT2=$("$TMP/gfdist" chaos -netchaos -seed "$SEED" -snapshot-dir "$SNAPDIR")
    D1=$(echo "$OUT1" | digest_of)
    D2=$(echo "$OUT2" | digest_of)
    [ -n "$D1" ] || { echo "no digest in output"; exit 1; }
    if [ "$D1" != "$D2" ]; then
      echo "seed $SEED not deterministic: $D1 vs $D2" >&2
      exit 1
    fi
  done

  echo "=== protocol unit tests under -race ==="
  go test -race -count=1 \
    -run 'TestNetChaos|TestReplayedReportCountedOnce|TestAgentFencesStaleEpochPlan|TestCentralFencesStaleEpochReport|TestLeaseExpiryParksAtCheckpoint|TestStragglerCutoffReconcilesLateReport|TestUndeliverablePlanImmediateMiss|TestPartitionLifecycleReachesTheTrace' \
    ./internal/distrib/
}

# soak: the probabilistic fault model. Every iteration runs the full
# engine under the strict auditor with the complete fault stack (server
# crashes, flaky server + quarantine, GPU degradation, job
# crash-restart, migration failures) and verifies the robustness
# contract — no job lost, audit clean, fairness in band, compensation
# books balanced, byte-identical rerun on the same seed. gfsoak exits
# nonzero on any contract violation.
smoke_soak() {
  for SEED in 42 7; do
    echo "=== soak seed $SEED ==="
    "$TMP/gfsoak" -seed "$SEED" -iters 2 -hours 6
  done
  # The scenario front door must accept fault-model JSON end to end.
  "$TMP/gfsim" -scenario scenarios/faulty.json >/dev/null
}

for check in ${@:-obs flight chaos netchaos soak}; do
  "smoke_$check"
  echo "$check smoke test passed"
done
