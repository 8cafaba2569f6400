package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/job"
	"repro/internal/profiler"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// stableArrivals is the cursor's job order as it was before it went
// through job.SortByArrival: a copy stably sorted by arrival. It is the
// oracle the order is held to.
func stableArrivals(specs []job.Spec) []job.Spec {
	out := slices.Clone(specs)
	slices.SortStableFunc(out, func(a, b job.Spec) int { return a.Arrival.Compare(b.Arrival) })
	return out
}

// checkCursorOrder requires newEventCursor to queue specs exactly as
// the oracle orders them, and to leave its input alone.
func checkCursorOrder(t *testing.T, what string, specs []job.Spec) {
	t.Helper()
	in := slices.Clone(specs)
	e := newEventCursor(specs, nil)
	if !slices.Equal(specs, in) {
		t.Fatalf("%s: newEventCursor reordered its input", what)
	}
	if want := stableArrivals(specs); !slices.Equal(e.specs, want) {
		for i := range want {
			if e.specs[i] != want[i] {
				t.Fatalf("%s: slot %d holds job %d at %v, the oracle job %d at %v",
					what, i, e.specs[i].ID, e.specs[i].Arrival, want[i].ID, want[i].Arrival)
			}
		}
		t.Fatalf("%s: %d specs queued, the oracle %d", what, len(e.specs), len(want))
	}
}

// TestEventCursorMatchesStableSort holds the cursor's arrival order to
// the stable sort on hand-built, shuffled workloads whose arrivals sit
// on a coarse grid, so most of them tie: among equal timestamps, config
// order (the order of Config.Specs) decides admission, which is part of
// the seed contract.
func TestEventCursorMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	perf := zoo.MustGet("vae")
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(80)
		grid := 1 + rng.Intn(6) // distinct arrival times: 1 is all ties
		specs := make([]job.Spec, n)
		for i := range specs {
			specs[i] = job.Spec{
				ID: job.ID(i + 1), User: job.UserID([]string{"a", "b", "c"}[rng.Intn(3)]),
				Perf: perf, Gang: 1, TotalMB: 1,
				Arrival: simclock.Time(rng.Intn(grid)) * 360,
			}
		}
		rng.Shuffle(n, func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
		checkCursorOrder(t, "shuffled", specs)
		checkCursorOrder(t, "sorted", stableArrivals(specs))
	}
}

// TestEventCursorOrdersCheckpointPending: a restored engine queues the
// checkpoint's Pending list in the oracle's order, whether the list
// comes as the checkpoint wrote it or shuffled, ties and all.
func TestEventCursorOrdersCheckpointPending(t *testing.T) {
	users := []workload.UserSpec{
		{User: "batch", NumJobs: 10},
		{User: "p1", NumJobs: 30, ArrivalRatePerHour: 1},
		{User: "p2", NumJobs: 30, ArrivalRatePerHour: 1},
		{User: "late", NumJobs: 1},
	}
	for i := range users {
		users[i].GangDist = []workload.GangWeight{{Gang: 1, Weight: 3}, {Gang: 2, Weight: 1}}
	}
	specs := workload.MustGenerate(zoo, workload.Config{Seed: 9, Users: users})
	cfg := Config{Cluster: k80Cluster(2, 4), Specs: specs, Seed: 9}
	s, err := New(cfg, MustNewFairPolicy(FairConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := s.Step(simclock.Time(simclock.Day)); err != nil {
			t.Fatal(err)
		}
	}
	cp := s.Checkpoint()
	if len(cp.Pending) < 10 {
		t.Fatalf("fixture: %d jobs pending after 4 rounds, want ≥ 10", len(cp.Pending))
	}
	// Pin a few pending arrivals together so the list carries ties.
	for i := 1; i < len(cp.Pending); i += 3 {
		cp.Pending[i].Arrival = cp.Pending[i-1].Arrival
	}
	checkCursorOrder(t, "checkpoint order", cp.Pending)
	rng := rand.New(rand.NewSource(3))
	rng.Shuffle(len(cp.Pending), func(i, j int) { cp.Pending[i], cp.Pending[j] = cp.Pending[j], cp.Pending[i] })
	checkCursorOrder(t, "shuffled", cp.Pending)

	r, err := Restore(cfg, MustNewFairPolicy(FairConfig{}), LocalExecutor{}, profiler.MustNew(0, 1), cp)
	if err != nil {
		t.Fatal(err)
	}
	if want := stableArrivals(cp.Pending); !slices.Equal(r.evq.specs, want) {
		t.Fatalf("restored engine queues %d pending jobs out of the oracle's order", len(want))
	}
}
