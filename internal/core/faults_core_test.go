package core

import (
	"math"
	"testing"

	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/simclock"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestCompensationRepaysFaultLosses puts two oversubscribed users
// under sustained fault pressure — outages, a flaky server, failed
// migrations, crashes. The fault deficits must be (nearly fully)
// repaid by the horizon and fairness must come out measurably better
// than the uncompensated ablation.
func TestCompensationRepaysFaultLosses(t *testing.T) {
	cfg := compScenario(11)
	res := runFair(t, cfg, FairConfig{}, simclock.Time(2*simclock.Day))
	if !res.Audit.Clean() {
		t.Fatalf("audit: %s", res.Audit.Summary())
	}
	if res.CompRepaidGPUSeconds <= 0 {
		t.Fatalf("no compensation materialized despite sustained faults")
	}
	for u, d := range res.CompDeficitByUser {
		// Outstanding debt at the horizon must be a sliver of what was
		// repaid — losses right before the horizon may still be open.
		if d > 0.1*res.CompRepaidGPUSeconds {
			t.Errorf("user %s still owed %.0f GPU-s (repaid %.0f)", u, d, res.CompRepaidGPUSeconds)
		}
	}
	if err := resMaxShareErrBelow(res, 0.05); err != nil {
		t.Errorf("share error %.3f with compensation, want < 0.05", res.MaxShareError())
	}

	// The ablation: without compensation the deficit must sit unrepaid
	// and fairness must not be better.
	nc, err := New(compScenario(11), MustNewFairPolicy(FairConfig{DisableCompensation: true}))
	if err != nil {
		t.Fatal(err)
	}
	ncRes, err := nc.Run(simclock.Time(2 * simclock.Day))
	if err != nil {
		t.Fatal(err)
	}
	if ncRes.CompRepaidGPUSeconds != 0 {
		t.Errorf("DisableCompensation still repaid %.1f GPU-s", ncRes.CompRepaidGPUSeconds)
	}
	var owed float64
	for _, u := range job.SortedUsers(ncRes.CompDeficitByUser) {
		owed += ncRes.CompDeficitByUser[u]
	}
	if owed <= 0 {
		t.Errorf("uncompensated run accrued no deficit — losses untracked")
	}
	if res.MaxShareError() > ncRes.MaxShareError()+0.005 {
		t.Errorf("compensation hurt fairness: %.3f vs %.3f uncompensated",
			res.MaxShareError(), ncRes.MaxShareError())
	}
}

// compScenario is a contended two-user cluster under the full fault
// stack (fresh specs each call — Sim mutates jobs in place).
func compScenario(seed int64) Config {
	var specs []job.Spec
	specs = append(specs, workload.BatchJobs("a", zoo.MustGet("lstm"), 8, 1, 1e6)...)
	specs = append(specs, workload.BatchJobs("b", zoo.MustGet("gru"), 8, 1, 1e6)...)
	specs, _ = workload.AssignIDs(specs)
	return Config{
		Cluster: k80Cluster(3, 4),
		Specs:   specs,
		Seed:    seed,
		Faults: &faults.Config{
			ServerMTBFHours:        8,
			ServerOutageMeanHours:  0.75,
			FlakyServers:           1,
			FlakyMTBFHours:         1.5,
			MigrationFailProb:      0.4,
			JobCrashMTBFHours:      6,
			QuarantineFailures:     3,
			QuarantineWindowHours:  2,
			QuarantineCooloffHours: 2,
		},
	}
}

// TestQuarantineTripsOnFlakyServer drives a flaky server through the
// circuit breaker: the breaker must trip, the trace must show the
// quarantine lifecycle, and the strict auditor (which fails the run on
// any placement touching a quarantined server) must stay clean.
func TestQuarantineTripsOnFlakyServer(t *testing.T) {
	specs := workload.BatchJobs("u", zoo.MustGet("lstm"), 10, 1, 1e6)
	specs, _ = workload.AssignIDs(specs)
	res := runFair(t, Config{
		Cluster: k80Cluster(3, 4),
		Specs:   specs,
		Seed:    7,
		Faults: &faults.Config{
			FlakyServers:           1,
			FlakyMTBFHours:         0.5,
			FlakyOutageMinutes:     8,
			QuarantineFailures:     2,
			QuarantineWindowHours:  2,
			QuarantineCooloffHours: 2,
		},
	}, FairConfig{}, simclock.Time(simclock.Day))
	if !res.Audit.Clean() {
		t.Fatalf("audit: %s", res.Audit.Summary())
	}
	if res.Quarantines < 1 {
		t.Fatalf("flaky server never quarantined (quarantines=%d)", res.Quarantines)
	}
	if got := len(res.Log.Filter(trace.KindQuarantine)); got != res.Quarantines {
		t.Errorf("%d quarantine events logged, counter says %d", got, res.Quarantines)
	}
	if len(res.Log.Filter(trace.KindUnquarantine)) < 1 {
		t.Errorf("quarantine never released over a full day")
	}
}

// TestCrashRestartKeepsJobsFinishing turns on job crash-restart with
// frequent checkpoints: crashes must happen, lose at most the
// checkpoint interval of progress, and every job must still finish.
func TestCrashRestartKeepsJobsFinishing(t *testing.T) {
	specs := workload.BatchJobs("u", zoo.MustGet("resnet50"), 6, 1, 1.5)
	specs, _ = workload.AssignIDs(specs)
	res := runFair(t, Config{
		Cluster: k80Cluster(2, 4),
		Specs:   specs,
		Seed:    5,
		Faults: &faults.Config{
			JobCrashMTBFHours: 1.5,
			CheckpointSecs:    720,
		},
	}, FairConfig{}, simclock.Time(2*simclock.Day))
	if !res.Audit.Clean() {
		t.Fatalf("audit: %s", res.Audit.Summary())
	}
	if res.Crashes == 0 {
		t.Fatalf("no crashes injected with a 1.5 h MTBF over 2 days")
	}
	if res.Unfinished != 0 {
		t.Fatalf("%d jobs lost to crash-restart", res.Unfinished)
	}
	if got := len(res.Log.Filter(trace.KindJobCrash)); got != res.Crashes {
		t.Errorf("%d jobcrash events logged, counter says %d", got, res.Crashes)
	}
	for _, j := range res.Finished {
		if j.Crashes() > 0 && j.Checkpoint().CkptMB == 0 {
			t.Errorf("job %d crashed %d times yet never checkpointed", j.ID, j.Crashes())
		}
	}
}

// TestMigrationFailureBacksOff makes every migration attempt fail: the
// displaced job must keep paying attempt costs under capped exponential
// backoff (bounding the attempt count), never complete a migration, and
// still finish once its server recovers.
func TestMigrationFailureBacksOff(t *testing.T) {
	specs := workload.BatchJobs("u", zoo.MustGet("resnet50"), 1, 2, 2.0)
	specs, _ = workload.AssignIDs(specs)
	res := runFair(t, Config{
		Cluster: k80Cluster(2, 2),
		Specs:   specs,
		Seed:    1,
		Failures: []Failure{
			{Server: 0, At: simclock.Time(simclock.Hour), Duration: 2 * simclock.Hour},
		},
		Faults: &faults.Config{
			MigrationFailProb:      1,
			MigrationBackoffRounds: 2,
		},
	}, FairConfig{}, simclock.Time(12*simclock.Hour))
	if !res.Audit.Clean() {
		t.Fatalf("audit: %s", res.Audit.Summary())
	}
	if len(res.Finished) != 1 {
		t.Fatalf("job lost to migration failures (finished=%d)", len(res.Finished))
	}
	if res.Migrations != 0 {
		t.Errorf("%d migrations completed despite MigrationFailProb=1", res.Migrations)
	}
	// A 2 h outage is 20 rounds; attempts spaced 2,4,8,... rounds apart
	// must stay well below one per round.
	if res.MigrationFailures < 2 || res.MigrationFailures > 6 {
		t.Errorf("%d failed attempts, want 2..6 under exponential backoff", res.MigrationFailures)
	}
	if got := len(res.Log.Filter(trace.KindMigFail)); got != res.MigrationFailures {
		t.Errorf("%d migfail events logged, counter says %d", got, res.MigrationFailures)
	}
	// Pinned to the dead server the whole outage: the job waits it out.
	if jct := res.Finished[0].JCT(); jct < 4*simclock.Hour-400 {
		t.Errorf("JCT %v — job should have ridden out the outage in place", jct)
	}
}

// TestMidMigrationSourceServerDeath is the regression test for a
// failure striking inside a job's migration window: the checkpoint the
// job migrates from lives in durable storage, not on the source server,
// so the copy succeeds even though the source is already down — the
// exact round the displacement migration happens. The job must keep all
// checkpointed progress.
func TestMidMigrationSourceServerDeath(t *testing.T) {
	specs := workload.BatchJobs("u", zoo.MustGet("resnet50"), 1, 2, 2.0)
	specs, _ = workload.AssignIDs(specs)
	res := runFair(t, Config{
		Cluster: k80Cluster(2, 2),
		Specs:   specs,
		Seed:    1,
		Failures: []Failure{
			// Dies exactly when the job is mid-run; the displacement
			// migration's source server is dead during the copy.
			{Server: 0, At: simclock.Time(simclock.Hour), Duration: 2 * simclock.Hour},
		},
		Faults: &faults.Config{},
	}, FairConfig{}, simclock.Time(12*simclock.Hour))
	if !res.Audit.Clean() {
		t.Fatalf("audit: %s", res.Audit.Summary())
	}
	if len(res.Finished) != 1 {
		t.Fatalf("job did not survive source-server death mid-migration")
	}
	j := res.Finished[0]
	if j.Migrations() < 1 {
		t.Fatalf("job recovered without migrating")
	}
	// Progress from before the failure survived: ~1 h of work done, so
	// finishing needs only ~1 h more plus the restart cost — far less
	// than restarting from zero (2 h) after the failure (1 h mark).
	if jct := j.JCT(); jct > 3*simclock.Hour {
		t.Errorf("JCT %v — checkpointed progress was lost in the migration", jct)
	}
	// The migration serialized a checkpoint while the source was down.
	if j.Checkpoint().CkptMB == 0 {
		t.Errorf("no durable checkpoint recorded across the migration")
	}
	if res.Crashes != 0 {
		t.Errorf("spurious crash events: %d", res.Crashes)
	}
}

// TestFaultedRunsAreDeterministic runs the full fault model twice on
// one seed (identical outcomes required) and once on another (outcomes
// must differ — the schedule really is seed-driven).
func TestFaultedRunsAreDeterministic(t *testing.T) {
	mkCfg := func(seed int64) Config {
		var specs []job.Spec
		specs = append(specs, workload.BatchJobs("a", zoo.MustGet("lstm"), 6, 1, 1e6)...)
		specs = append(specs, workload.BatchJobs("b", zoo.MustGet("gru"), 6, 1, 1e6)...)
		specs, _ = workload.AssignIDs(specs)
		return Config{
			Cluster: k80Cluster(3, 4),
			Specs:   specs,
			Seed:    seed,
			Faults: &faults.Config{
				ServerMTBFHours:        6,
				ServerOutageMeanHours:  0.5,
				FlakyServers:           1,
				FlakyMTBFHours:         1,
				DegradeMTBFHours:       8,
				JobCrashMTBFHours:      4,
				MigrationFailProb:      0.3,
				QuarantineFailures:     3,
				QuarantineWindowHours:  2,
				QuarantineCooloffHours: 2,
			},
		}
	}
	run := func(seed int64) *Result {
		return runFair(t, mkCfg(seed), FairConfig{}, simclock.Time(simclock.Day))
	}
	a, b := run(42), run(42)
	if a.Crashes != b.Crashes || a.MigrationFailures != b.MigrationFailures ||
		a.Quarantines != b.Quarantines || a.Rounds != b.Rounds ||
		a.Log.Len() != b.Log.Len() {
		t.Fatalf("same seed diverged: %+v vs %+v",
			[]int{a.Crashes, a.MigrationFailures, a.Quarantines, a.Rounds, a.Log.Len()},
			[]int{b.Crashes, b.MigrationFailures, b.Quarantines, b.Rounds, b.Log.Len()})
	}
	ua, ub := a.TotalUsageByUser(), b.TotalUsageByUser()
	for u, v := range ua {
		if ub[u] != v {
			t.Fatalf("same seed: user %s usage %v vs %v", u, v, ub[u])
		}
	}
	c := run(43)
	if a.Crashes == c.Crashes && a.MigrationFailures == c.MigrationFailures &&
		a.Log.Len() == c.Log.Len() && math.Abs(a.TotalOccupied()-c.TotalOccupied()) < 1e-9 {
		t.Errorf("different seeds produced identical fault outcomes")
	}
}

// TestQuarantineAndDownCapacitySubtraction checks RoundState's net
// capacity treats down and quarantined servers as one union (a server
// in both states is subtracted once).
func TestQuarantineAndDownCapacitySubtraction(t *testing.T) {
	cl := k80Cluster(3, 4)
	st := &RoundState{
		Cluster:     cl,
		Down:        servers(0, 1),
		Quarantined: servers(1, 2),
	}
	caps := st.CapacityByGen()
	if got := caps[gpu.K80]; got != 0 {
		t.Errorf("all three servers out: capacity %d, want 0", got)
	}
	st.Quarantined = servers(1)
	if got := st.CapacityByGen()[gpu.K80]; got != 4 {
		t.Errorf("two servers out: capacity %d, want 4", got)
	}
}
