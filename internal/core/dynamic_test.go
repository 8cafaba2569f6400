package core

import (
	"math"
	"testing"

	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/workload"
)

func TestTicketChangeFlipsShares(t *testing.T) {
	// Equal tickets for the first 6 hours, then a gives its priority
	// away: a drops to 1, b rises to 3. The timeline must show ~50/50
	// then ~25/75.
	var specs []job.Spec
	specs = append(specs, workload.BatchJobs("a", zoo.MustGet("lstm"), 6, 1, 1e6)...)
	specs = append(specs, workload.BatchJobs("b", zoo.MustGet("gru"), 6, 1, 1e6)...)
	specs, _ = workload.AssignIDs(specs)
	res := runFair(t, Config{
		Cluster:        k80Cluster(2, 4),
		Specs:          specs,
		Seed:           30,
		TimelineWindow: 3 * simclock.Hour,
		TicketChanges: []TicketChange{
			{At: simclock.Time(6 * simclock.Hour), User: "b", Tickets: 3},
		},
	}, FairConfig{}, simclock.Time(12*simclock.Hour))

	ws := res.Timeline.Windows()
	if len(ws) < 4 {
		t.Fatalf("windows = %d", len(ws))
	}
	before, after := ws[0].Fractions(), ws[3].Fractions() // a at 0, b at 1
	if math.Abs(before[0]-0.5) > 0.05 {
		t.Errorf("before change: a=%v, want 0.5", before[0])
	}
	if math.Abs(after[1]-0.75) > 0.06 {
		t.Errorf("after change: b=%v, want 0.75", after[1])
	}
}

func TestTicketChangeValidation(t *testing.T) {
	specs := workload.BatchJobs("u", zoo.MustGet("vae"), 1, 1, 1)
	specs, _ = workload.AssignIDs(specs)
	base := Config{Cluster: k80Cluster(1, 4), Specs: specs}
	bad := []TicketChange{
		{At: 0, User: "", Tickets: 1},
		{At: -1, User: "u", Tickets: 1},
		{At: 0, User: "u", Tickets: -1},
	}
	for i, tc := range bad {
		cfg := base
		cfg.TicketChanges = []TicketChange{tc}
		if cfg.Validate() == nil {
			t.Errorf("bad ticket change %d accepted", i)
		}
	}
}

func TestQueueDelays(t *testing.T) {
	// FIFO on a 2-GPU cluster with three sequential 2-GPU jobs: the
	// k-th job waits ≈(k−1)× the job runtime.
	specs := workload.BatchJobs("u", zoo.MustGet("dcgan"), 3, 2, 1.0)
	specs[1].Arrival, specs[2].Arrival = 10, 20
	specs, _ = workload.AssignIDs(specs)
	sim, err := New(Config{Cluster: k80Cluster(1, 2), Specs: specs, Seed: 31},
		MustNewFairPolicy(FairConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(simclock.Time(12 * simclock.Hour))
	if err != nil {
		t.Fatal(err)
	}
	delays := res.QueueDelays()
	if len(delays) != 3 {
		t.Fatalf("%d delays, want 3", len(delays))
	}
	// Under fair time-slicing all three start within the first few
	// quanta (stride rotates them), so delays are bounded by a few
	// rounds — the metric distinguishes this from FIFO-style waiting.
	st := metrics.Summarize(delays)
	if st.Max > 4*360 {
		t.Errorf("max queue delay %v under time-slicing, want ≤ a few quanta", st.Max)
	}
}

func TestQueueDelayNeverRan(t *testing.T) {
	j := job.MustNew(job.Spec{ID: 1, User: "u", Perf: zoo.MustGet("vae"), Gang: 1, TotalMB: 10})
	if _, ok := j.QueueDelay(); ok {
		t.Error("QueueDelay ok for a job that never ran")
	}
	j.NoteFirstRun(500)
	j.NoteFirstRun(900) // second call must not move it
	if d, ok := j.QueueDelay(); !ok || d != 500 {
		t.Errorf("QueueDelay = %v, %v; want 500, true", d, ok)
	}
}

// TestThemisNIgnoresTicketChangeForUserWithoutJobs: Themis's ρ divides
// by N, the number of users. A ticket change may name a user with no
// jobs; that adds a ticket entry but no user, so every user's ρ must
// come out bit for bit as without the change.
func TestThemisNIgnoresTicketChangeForUserWithoutJobs(t *testing.T) {
	specs := append(workload.BatchJobs("a", zoo.MustGet("vae"), 3, 1, 0.5),
		workload.BatchJobs("b", zoo.MustGet("lstm"), 3, 2, 0.5)...)
	specs, _ = workload.AssignIDs(specs)
	cfg := Config{Cluster: k80Cluster(1, 4), Specs: specs, Seed: 8}
	until := simclock.Time(simclock.Day)
	plain := runFair(t, cfg, FairConfig{}, until)
	cfg.TicketChanges = []TicketChange{{At: simclock.Time(simclock.Hour), User: "ghost", Tickets: 4}}
	ghost := runFair(t, cfg, FairConfig{}, until)
	if len(plain.SLO.RhoByUser) != 2 {
		t.Fatalf("fixture: ρ for %d users, want both finished", len(plain.SLO.RhoByUser))
	}
	if len(ghost.SLO.RhoByUser) != len(plain.SLO.RhoByUser) {
		t.Fatalf("ρ for users %v with the change, %v without", ghost.SLO.RhoByUser, plain.SLO.RhoByUser)
	}
	for u, want := range plain.SLO.RhoByUser {
		if got := ghost.SLO.RhoByUser[u]; math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("user %s: ρ %v with a ticket change for a user without jobs, %v without", u, got, want)
		}
	}
}
