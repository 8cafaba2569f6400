package core

import (
	"math"
	"testing"

	"repro/internal/fairshare"
	"repro/internal/job"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// mustHierarchy builds a hierarchy the test knows is valid.
func mustHierarchy(t *testing.T, orgs map[string]*fairshare.Org) *fairshare.Hierarchy {
	t.Helper()
	h, err := fairshare.NewHierarchy(orgs)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHierarchicalFairnessEndToEnd(t *testing.T) {
	// Org "research" (3 users) and org "prod" (1 user) hold equal org
	// tickets. Flat fairness would give prod's single user 25%;
	// hierarchical fairness must give each ORG half the cluster.
	h := mustHierarchy(t, map[string]*fairshare.Org{
		"research": {Tickets: 1, Weights: map[job.UserID]float64{"r1": 1, "r2": 1, "r3": 1}},
		"prod":     {Tickets: 1, Weights: map[job.UserID]float64{"p1": 1}},
	})
	var specs []job.Spec
	for _, u := range []job.UserID{"r1", "r2", "r3", "p1"} {
		specs = append(specs, workload.BatchJobs(u, zoo.MustGet("lstm"), 6, 1, 200)...)
	}
	specs, _ = workload.AssignIDs(specs)
	res := runFair(t, Config{Cluster: k80Cluster(2, 4), Specs: specs, Seed: 20},
		FairConfig{Hierarchy: h}, simclock.Time(12*simclock.Hour))

	sh := shares(res)
	research := sh["r1"] + sh["r2"] + sh["r3"]
	prod := sh["p1"]
	if math.Abs(research-0.5) > 0.04 || math.Abs(prod-0.5) > 0.04 {
		t.Fatalf("org shares research=%v prod=%v, want 0.5 each", research, prod)
	}
	// Intra-org equality among the research users.
	for _, u := range []job.UserID{"r1", "r2", "r3"} {
		if math.Abs(sh[u]-research/3) > 0.03 {
			t.Errorf("user %s share %v, want ≈%v", u, sh[u], research/3)
		}
	}
}

func TestHierarchyWorkConservationAcrossOrgs(t *testing.T) {
	// prod's user departs (short jobs); research must inherit the
	// whole cluster afterwards.
	h := mustHierarchy(t, map[string]*fairshare.Org{
		"research": {Tickets: 1, Weights: map[job.UserID]float64{"r1": 1}},
		"prod":     {Tickets: 1, Weights: map[job.UserID]float64{"p1": 1}},
	})
	var specs []job.Spec
	specs = append(specs, workload.BatchJobs("r1", zoo.MustGet("lstm"), 4, 1, 100)...)
	specs = append(specs, workload.BatchJobs("p1", zoo.MustGet("gru"), 4, 1, 1)...)
	specs, _ = workload.AssignIDs(specs)
	res := runFair(t, Config{Cluster: k80Cluster(1, 4), Specs: specs, Seed: 21},
		FairConfig{Hierarchy: h}, simclock.Time(8*simclock.Hour))
	if u := res.Utilization.Fraction(); u < 0.95 {
		t.Fatalf("utilization %v after prod departed, want work conservation", u)
	}
	// p1's 4 jobs at half share of 4 GPUs: 1h standalone each ⇒ done
	// by ~2-3h.
	finishedP1 := 0
	for _, j := range res.Finished {
		if j.User == "p1" {
			finishedP1++
		}
	}
	if finishedP1 != 4 {
		t.Fatalf("p1 finished %d of 4", finishedP1)
	}
}
