package distrib

import (
	"math"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/netchaos"
	"repro/internal/obs"
)

// centralDrops is gfdist chaos's -drop-prob/-max-drops schedule: the
// central's sends from round 1 on (plans, and any rejoin ack) dropped
// with probability prob, at most max times.
func centralDrops(seed int64, prob float64, max int) *netchaos.Config {
	return &netchaos.Config{Seed: seed, Faults: []netchaos.Fault{{
		Kind: netchaos.Drop, From: "central", To: "*",
		Rounds: faults.RoundInterval{From: 1, To: math.MaxInt}, Prob: prob, Max: max,
	}}}
}

// The acceptance run: one agent killed mid-run and rejoining, the
// central crashed and restored from a snapshot, plans dropped — and
// per-user usage must still come out byte-identical to the undisturbed
// baseline.
func TestChaosKillRejoinSnapshotRestore(t *testing.T) {
	ob := obs.New()
	sum, err := RunChaos(ChaosConfig{
		Seed:               42,
		Net:                centralDrops(42, 0.3, 2),
		KillAtRound:        1,
		RestartAfterRounds: 2,
		SnapshotAtRound:    2,
		SnapshotDir:        t.TempDir(),
		Obs:                ob,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Baseline.Unfinished != 0 || sum.Faulted.Unfinished != 0 {
		t.Fatalf("unfinished jobs: baseline %d, faulted %d",
			sum.Baseline.Unfinished, sum.Faulted.Unfinished)
	}
	if !sum.UsageIdentical() {
		t.Errorf("usage diverged:\nbaseline %v\nfaulted  %v",
			sum.Baseline.UsageByUser, sum.Faulted.UsageByUser)
	}
	var sawKill, sawRejoin, sawRestore bool
	for _, e := range sum.Events {
		switch {
		case strings.Contains(e, "killed"):
			sawKill = true
		case strings.Contains(e, "rejoin"):
			sawRejoin = true
		case strings.Contains(e, "restored from snapshot"):
			sawRestore = true
		}
	}
	if !sawKill || !sawRejoin || !sawRestore {
		t.Errorf("missing chaos events (kill=%v rejoin=%v restore=%v): %v",
			sawKill, sawRejoin, sawRestore, sum.Events)
	}
	t.Logf("events: %v; dropped sends: %d", sum.Events, sum.NetStats[netchaos.Drop])
}

// Same seed twice must produce the same fault script and outcome.
func TestChaosDeterministic(t *testing.T) {
	cfg := ChaosConfig{
		Seed:               7,
		Net:                centralDrops(7, 0.5, 2),
		KillAtRound:        2,
		RestartAfterRounds: 1,
	}
	a, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.NetStats[netchaos.Drop] != b.NetStats[netchaos.Drop] {
		t.Errorf("dropped sends differ across identical seeds: %d vs %d",
			a.NetStats[netchaos.Drop], b.NetStats[netchaos.Drop])
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event logs differ: %v vs %v", a.Events, b.Events)
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Errorf("event %d differs: %q vs %q", i, a.Events[i], b.Events[i])
		}
	}
	for u, s := range a.Faulted.UsageByUser {
		if b.Faulted.UsageByUser[u] != s {
			t.Errorf("usage for %s differs across identical seeds", u)
		}
	}
}

// Drops alone: a swallowed round plan stalls that agent's jobs for a
// round but the on-the-wire checkpoints mean no progress or usage is
// ever double-counted.
func TestChaosPlanDropsOnly(t *testing.T) {
	sum, err := RunChaos(ChaosConfig{
		Seed: 3,
		Net:  centralDrops(3, 1, 2), // drop the first two plans outright
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.NetStats[netchaos.Drop] == 0 {
		t.Fatal("chaos layer dropped nothing despite probability 1")
	}
	if !sum.UsageIdentical() {
		t.Errorf("usage diverged after %d dropped plans:\nbaseline %v\nfaulted  %v",
			sum.NetStats[netchaos.Drop], sum.Baseline.UsageByUser, sum.Faulted.UsageByUser)
	}
	// Dropped plans cost wall-clock rounds, never accounting.
	if sum.Faulted.Rounds < sum.Baseline.Rounds {
		t.Errorf("faulted run took fewer rounds (%d) than baseline (%d)",
			sum.Faulted.Rounds, sum.Baseline.Rounds)
	}
}
