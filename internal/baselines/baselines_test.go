package baselines

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/workload"
)

var zoo = workload.DefaultZoo()

func k80Cluster(servers, gpus int) *gpu.Cluster {
	return gpu.MustNew(gpu.Spec{Gen: gpu.K80, Servers: servers, GPUsPerSrv: gpus})
}

func run(t *testing.T, cfg core.Config, p core.Policy, until simclock.Time) *core.Result {
	t.Helper()
	sim, err := core.New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(until)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// skewedSpecs: user "many" floods 12 jobs, user "few" has 4, all
// identical 1-GPU long jobs.
func skewedSpecs() []job.Spec {
	var specs []job.Spec
	specs = append(specs, workload.BatchJobs("many", zoo.MustGet("lstm"), 12, 1, 300)...)
	specs = append(specs, workload.BatchJobs("few", zoo.MustGet("lstm"), 4, 1, 300)...)
	specs, _ = workload.AssignIDs(specs)
	return specs
}

func TestTiresiasJobLevelNotUserLevel(t *testing.T) {
	// With identical jobs, Tiresias-L equalizes per-JOB service, so
	// the user with 3× the jobs gets ≈3× the GPU time — the paper's
	// core unfairness demonstration.
	res := run(t, core.Config{Cluster: k80Cluster(2, 4), Specs: skewedSpecs(), Seed: 1},
		NewTiresias(), simclock.Time(12*simclock.Hour))
	sh := metrics.ShareFractions(res.TotalUsageByUser())
	// Job-count proportionality predicts ≈0.75; within-queue FIFO tie
	// breaking skews it further toward the flooder. Either way, far
	// from the 0.5 a user-level fair scheduler delivers.
	if sh["many"] < 0.70 {
		t.Fatalf("tiresias shares = %v, want many ≥ 0.70 (job-level unfairness)", sh)
	}
	if res.Utilization.Fraction() < 0.9 {
		t.Errorf("utilization %v", res.Utilization.Fraction())
	}
}

func TestTiresiasPrioritizesYoungJobs(t *testing.T) {
	// A newly arrived job must preempt long-served ones immediately
	// (LAS), giving it a short JCT even on a busy cluster.
	specs := workload.BatchJobs("u", zoo.MustGet("gru"), 4, 1, 100)
	late := workload.BatchJobs("u", zoo.MustGet("gru"), 1, 1, 0.25)
	late[0].Arrival = simclock.Time(4 * simclock.Hour)
	specs = append(specs, late...)
	specs, _ = workload.AssignIDs(specs)
	res := run(t, core.Config{Cluster: k80Cluster(1, 2), Specs: specs, Seed: 2},
		NewTiresias(), simclock.Time(12*simclock.Hour))
	var lateJCT float64 = -1
	for _, j := range res.Finished {
		if j.TotalMB < 1000*3600 { // the short one
			lateJCT = j.JCT()
		}
	}
	if lateJCT < 0 {
		t.Fatal("short late job did not finish")
	}
	if lateJCT > 2*simclock.Hour {
		t.Errorf("late short job JCT = %v, want fast LAS service", lateJCT)
	}
}

func TestGandivaRREqualRounds(t *testing.T) {
	// RR equalizes rounds per job; with equal 1-GPU jobs that is also
	// equal GPU time per job (so per-user ∝ job count).
	res := run(t, core.Config{Cluster: k80Cluster(2, 4), Specs: skewedSpecs(), Seed: 3},
		NewGandivaRR(), simclock.Time(12*simclock.Hour))
	sh := metrics.ShareFractions(res.TotalUsageByUser())
	if math.Abs(sh["many"]-0.75) > 0.06 {
		t.Fatalf("gandiva-rr shares = %v, want many≈0.75", sh)
	}
	if res.Utilization.Fraction() < 0.9 {
		t.Errorf("utilization %v", res.Utilization.Fraction())
	}
}

func TestStaticQuotaFairButNotWorkConserving(t *testing.T) {
	// few's partition sits idle once its jobs finish... here: "few"
	// has NO jobs at all, so half the cluster idles while "many" is
	// backlogged — the efficiency cost of static partitioning.
	specs := workload.BatchJobs("many", zoo.MustGet("lstm"), 12, 1, 300)
	specs, _ = workload.AssignIDs(specs)
	pol := NewStaticQuota([]job.UserID{"many", "ghost"})
	res := run(t, core.Config{Cluster: k80Cluster(2, 4), Specs: specs, Seed: 4},
		pol, simclock.Time(12*simclock.Hour))
	if u := res.Utilization.Fraction(); u > 0.55 {
		t.Fatalf("static quota utilization %v, want ≈0.5 (ghost partition idles)", u)
	}
	// And with both users active, shares are fair.
	res2 := run(t, core.Config{Cluster: k80Cluster(2, 4), Specs: skewedSpecs(), Seed: 5},
		NewStaticQuota([]job.UserID{"many", "few"}), simclock.Time(12*simclock.Hour))
	sh := metrics.ShareFractions(res2.TotalUsageByUser())
	if math.Abs(sh["many"]-0.5) > 0.05 {
		t.Fatalf("static quota shares = %v, want 0.5 each", sh)
	}
}

func TestStaticQuotaTicketProportion(t *testing.T) {
	// Both users fully backlogged (12 jobs each) so quotas bind.
	var specs []job.Spec
	specs = append(specs, workload.BatchJobs("many", zoo.MustGet("lstm"), 12, 1, 300)...)
	specs = append(specs, workload.BatchJobs("few", zoo.MustGet("lstm"), 12, 1, 300)...)
	specs, _ = workload.AssignIDs(specs)
	res := run(t, core.Config{
		Cluster: k80Cluster(2, 4),
		Specs:   specs,
		Tickets: map[job.UserID]float64{"many": 1, "few": 3},
		Seed:    6,
	}, NewStaticQuota([]job.UserID{"many", "few"}), simclock.Time(12*simclock.Hour))
	sh := metrics.ShareFractions(res.TotalUsageByUser())
	if math.Abs(sh["few"]-0.75) > 0.05 {
		t.Fatalf("shares = %v, want few≈0.75", sh)
	}
}

func TestFIFOArrivalOrder(t *testing.T) {
	// Two 2-GPU jobs on 2 GPUs: strictly sequential completion in
	// arrival order.
	specs := workload.BatchJobs("u", zoo.MustGet("dcgan"), 2, 2, 1)
	specs[1].Arrival = 10
	specs, _ = workload.AssignIDs(specs)
	res := run(t, core.Config{Cluster: k80Cluster(1, 2), Specs: specs, Seed: 7},
		NewFIFO(), simclock.Time(6*simclock.Hour))
	if len(res.Finished) != 2 {
		t.Fatalf("finished %d", len(res.Finished))
	}
	if res.Finished[0].ID != 1 || res.Finished[1].ID != 2 {
		t.Fatalf("completion order %d, %d; want 1, 2", res.Finished[0].ID, res.Finished[1].ID)
	}
	// Second job's JCT ≈ 2× standalone (waits for the first).
	if jct := res.Finished[1].JCT(); jct < 1.8*simclock.Hour {
		t.Errorf("second job JCT %v, want ≈2h (waited)", jct)
	}
}

func TestFIFOBackfillsAroundBigGang(t *testing.T) {
	// First arrival needs 4 GPUs on a 2-GPU cluster... impossible —
	// use: big job 4 GPUs arrives first on 4-GPU cluster, then two
	// 1-GPU jobs. While the big job runs nothing fits; after it
	// completes the small ones run. But if the big job arrives SECOND
	// on a busy cluster, smaller later arrivals must backfill the
	// leftover GPUs instead of head-of-line blocking.
	var specs []job.Spec
	specs = append(specs, workload.BatchJobs("u", zoo.MustGet("lstm"), 1, 2, 3)...) // occupies 2 of 4
	specs = append(specs, workload.BatchJobs("u", zoo.MustGet("lstm"), 1, 4, 1)...) // can't fit yet
	specs = append(specs, workload.BatchJobs("u", zoo.MustGet("lstm"), 2, 1, 0.5)...)
	specs[1].Arrival = 10
	specs[2].Arrival = 20
	specs[3].Arrival = 30
	specs, _ = workload.AssignIDs(specs)
	res := run(t, core.Config{Cluster: k80Cluster(1, 4), Specs: specs, Seed: 8},
		NewFIFO(), simclock.Time(12*simclock.Hour))
	if len(res.Finished) != 4 {
		t.Fatalf("finished %d of 4", len(res.Finished))
	}
	// The two 1-GPU jobs (IDs 3, 4) must finish before the 4-GPU job
	// (ID 2): they backfilled the idle pair of GPUs.
	finishOf := map[job.ID]simclock.Time{}
	for _, j := range res.Finished {
		finishOf[j.ID] = j.FinishTime()
	}
	if !(finishOf[3] < finishOf[2] && finishOf[4] < finishOf[2]) {
		t.Errorf("backfill failed: finish times %v", finishOf)
	}
}

func TestAllBaselinesRunOnHeterogeneousCluster(t *testing.T) {
	cluster := gpu.MustNew(
		gpu.Spec{Gen: gpu.K80, Servers: 2, GPUsPerSrv: 4},
		gpu.Spec{Gen: gpu.V100, Servers: 1, GPUsPerSrv: 4},
	)
	specs := workload.MustGenerate(zoo, workload.Config{
		Seed: 9,
		Users: []workload.UserSpec{
			{User: "a", NumJobs: 15, ArrivalRatePerHour: 3, GangDist: []workload.GangWeight{{Gang: 1, Weight: 0.8}, {Gang: 2, Weight: 0.2}}},
			{User: "b", NumJobs: 15, ArrivalRatePerHour: 3, GangDist: []workload.GangWeight{{Gang: 1, Weight: 0.8}, {Gang: 4, Weight: 0.2}}},
		},
		MaxK80Hours: 4,
	})
	policies := []core.Policy{
		NewTiresias(),
		NewGandivaRR(),
		NewStaticQuota([]job.UserID{"a", "b"}),
		NewFIFO(),
	}
	for _, p := range policies {
		res := run(t, core.Config{Cluster: cluster, Specs: specs, Seed: 9}, p,
			simclock.Time(2*simclock.Day))
		if len(res.Finished) == 0 {
			t.Errorf("%s finished no jobs", p.Name())
		}
		if res.Unfinished > 0 && res.End < simclock.Time(2*simclock.Day) {
			t.Errorf("%s stopped early with %d unfinished", p.Name(), res.Unfinished)
		}
	}
}

// TestFuzzBaselineInvariants runs random scenarios (churn, failures,
// mixed gangs) through every baseline and checks the engine-level
// invariants hold for them too — the Policy contract is shared.
func TestFuzzBaselineInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 12; trial++ {
		cluster := gpu.MustNew(
			gpu.Spec{Gen: gpu.K80, Servers: 1 + rng.Intn(3), GPUsPerSrv: 2 + rng.Intn(3)},
			gpu.Spec{Gen: gpu.V100, Servers: 1 + rng.Intn(2), GPUsPerSrv: 2 + rng.Intn(3)},
		)
		maxGang := cluster.Capacity(gpu.K80)
		if c := cluster.Capacity(gpu.V100); c > maxGang {
			maxGang = c
		}
		users := []job.UserID{"a", "b", "c"}
		var us []workload.UserSpec
		for _, u := range users {
			us = append(us, workload.UserSpec{
				User: u, NumJobs: 2 + rng.Intn(8), ArrivalRatePerHour: float64(rng.Intn(4)),
				MeanK80Hours: 0.5 + rng.Float64()*2,
				GangDist: []workload.GangWeight{
					{Gang: 1, Weight: 0.7},
					{Gang: 1 + rng.Intn(maxGang), Weight: 0.3},
				},
			})
		}
		specs := workload.MustGenerate(zoo, workload.Config{Seed: int64(trial), Users: us, MaxK80Hours: 4})
		cfg := core.Config{Cluster: cluster, Specs: specs, Seed: int64(trial)}
		if rng.Intn(2) == 0 {
			cfg.Failures = []core.Failure{{
				Server:   gpu.ServerID(rng.Intn(cluster.NumServers())),
				At:       simclock.Time(rng.Intn(8) * 3600),
				Duration: simclock.Hour,
			}}
		}
		policies := []core.Policy{
			NewTiresias(),
			NewGandivaRR(),
			NewStaticQuota(users),
			NewFIFO(),
		}
		for _, p := range policies {
			res := run(t, cfg, p, simclock.Time(2*simclock.Day))
			if len(res.Finished)+res.Unfinished != len(specs) {
				t.Fatalf("trial %d %s: job conservation broken: %d+%d != %d",
					trial, p.Name(), len(res.Finished), res.Unfinished, len(specs))
			}
			if res.Utilization.Fraction() > 1+1e-9 {
				t.Fatalf("trial %d %s: utilization %v > 1", trial, p.Name(), res.Utilization.Fraction())
			}
			occupied := res.TotalUsageByUser()
			for u, useful := range res.UsefulByUser {
				if useful > occupied[u]+1e-6 {
					t.Fatalf("trial %d %s: useful %v > occupied %v for %s",
						trial, p.Name(), useful, occupied[u], u)
				}
			}
		}
	}
}

func TestPolicyNames(t *testing.T) {
	names := map[string]core.Policy{
		"tiresias-l":   NewTiresias(),
		"gandiva-rr":   NewGandivaRR(),
		"static-quota": NewStaticQuota(nil),
		"fifo":         NewFIFO(),
	}
	for want, p := range names {
		if p.Name() != want {
			t.Errorf("Name = %q, want %q", p.Name(), want)
		}
	}
}

func TestTiresiasQueueOf(t *testing.T) {
	const h = 3600
	cases := map[float64]int{0: 0, h - 1: 0, h: 1, 4*h - 1: 1, 4 * h: 2, 16*h - 1: 2, 16 * h: 3, 1e9: 3}
	for att, want := range cases {
		if got := queueOf(att); got != want {
			t.Errorf("queueOf(%v) = %d, want %d", att, got, want)
		}
	}
}
