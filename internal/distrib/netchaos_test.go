package distrib

import (
	"testing"

	"repro/internal/netchaos"
	"repro/internal/obs"
)

// The partition-tolerance acceptance run: the full network fault
// matrix — duplication, reordering, corruption, a dropped plan, a
// delayed straggler report, a one-way partition, a full partition,
// and a central crash/restore mid-partition — on a fixed seed must
// leave per-user usage byte-identical to the undisturbed baseline.
func TestNetChaosMatrix(t *testing.T) {
	ob := obs.New()
	cfg := NetChaosConfig(911, t.TempDir())
	cfg.Obs = ob
	sum, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkNetChaosMatrix(t, sum, ob)
	t.Logf("events: %v; net: %v; digest %s", sum.Events, sum.NetStats, UsageDigest(sum.Faulted))
}

// checkNetChaosMatrix asserts what a NetChaosConfig run observed by ob
// must show: identical digests, every fault kind fired, every protocol
// defence engaged, and one restore.
func checkNetChaosMatrix(t *testing.T, sum *ChaosSummary, ob *obs.Observer) {
	t.Helper()
	base, faulted := sum.Digests()
	if base != faulted {
		t.Errorf("usage digest diverged:\nbaseline %s %v\nfaulted  %s %v",
			base, sum.Baseline.UsageByUser, faulted, sum.Faulted.UsageByUser)
	}
	// Every scripted fault kind actually fired.
	for _, k := range []netchaos.Kind{
		netchaos.Drop, netchaos.Dup, netchaos.Reorder, netchaos.Delay,
		netchaos.Corrupt, netchaos.OneWay, netchaos.Partition,
	} {
		if sum.NetStats[k] == 0 {
			t.Errorf("fault %q never fired: %v", k, sum.NetStats)
		}
	}
	// Corruption is always detected (by either side's checksum) and
	// never applied: one detection per injected corruption.
	if det, inj := ob.Value("gf_protocol_events_total", "corrupt_detected"), ob.Value("gf_net_corrupted_total"); det != inj {
		t.Errorf("corrupt: injected %v, detected %v", inj, det)
	}
	// Duplicate deliveries were dropped by dedup, the dead epoch's
	// straggler was fenced after the restore, and degraded-mode
	// backlogs reconciled on heal.
	for _, ev := range []string{"dup_dropped", "fence_reject", "late_report_applied", "partition_heal"} {
		if ob.Value("gf_protocol_events_total", ev) == 0 {
			t.Errorf("protocol event %q never happened", ev)
		}
	}
	// The restored central runs one epoch ahead of the crashed one.
	if got := ob.Value("gf_epoch"); got != 2 {
		t.Errorf("epoch gauge = %v, want 2 after one restore", got)
	}
}

// Same seed, same schedule: the matrix must reproduce its outcome
// exactly (hash-coin determinism regardless of goroutine interleaving).
func TestNetChaosDeterministic(t *testing.T) {
	run := func() (string, map[netchaos.Kind]int) {
		sum, err := RunChaos(NetChaosConfig(911, t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		_, d := sum.Digests()
		return d, sum.NetStats
	}
	d1, n1 := run()
	d2, n2 := run()
	if d1 != d2 {
		t.Errorf("digest not reproducible: %s vs %s", d1, d2)
	}
	if len(n1) != len(n2) {
		t.Fatalf("fault stats not reproducible: %v vs %v", n1, n2)
	}
	for k, v := range n1 {
		if n2[k] != v {
			t.Errorf("fault %q fired %d then %d times", k, v, n2[k])
		}
	}
}
