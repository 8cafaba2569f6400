package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/profiler"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// TestRefundOrderIsGrantOrder pins Executed's settlement order. Two
// credit-funded jobs of one user on one generation both go unplaced, so
// both refunds land in one credit — a float sum, whose order must not
// vary between runs. Decide's own funding cannot leave a credit that
// tells the orders apart (it subtracted the same widths from a larger
// number, so adding them back is exact either way), so the test plants
// one that does between Decide and Executed: the property is that
// Executed walks the grants in the order Decide made them, whatever the
// credit holds. Settling in map order, as Executed did when its grants
// lived in a map, leaves differing bits about every other run.
func TestRefundOrderIsGrantOrder(t *testing.T) {
	const wide, narrow = 8, 2
	credit := 1.9096094509685468 // a variable: constant arithmetic would not round
	if (credit+wide)+narrow == (credit+narrow)+wide {
		t.Fatal("fixture lost its teeth: both refund orders round alike")
	}
	cluster := gpu.MustNew(gpu.Spec{Gen: gpu.K80, Servers: 4, GPUsPerSrv: 4})
	perf := workload.DefaultZoo().MustGet("vae")
	for i := 0; i < 200; i++ {
		p := MustNewFairPolicy(FairConfig{})
		jobs := []*job.Job{
			job.MustNew(job.Spec{ID: 1, User: "u", Perf: perf, Gang: narrow, TotalMB: 1e9}),
			job.MustNew(job.Spec{ID: 2, User: "u", Perf: perf, Gang: wide, TotalMB: 1e9}),
		}
		dec := p.Decide(&RoundState{
			Quantum: 360, Cluster: cluster, Jobs: jobs,
			Tickets: map[job.UserID]float64{"u": 1}, Prof: profiler.MustNew(0, 1),
		})
		// Equal pass, so the wider gang is granted first; the user's whole
		// share (their demand, 10 GPUs) funds both from credit.
		if len(dec.Run) != 2 || dec.Run[0].Job.ID != 2 || !p.all[0].viaCredit || !p.all[1].viaCredit {
			t.Fatalf("want both jobs credit-funded, wide first; got %+v", dec.Run)
		}
		p.users[0].credit[gpu.K80] = credit // "u", the only user
		p.Executed(&ExecReport{})           // fragmentation placed neither
		want := (credit + wide) + narrow
		if got := p.Credit("u")[gpu.K80]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("policy %d: credit after refunds %.17g, want grant order's %.17g", i, got, want)
		}
	}
}

// TestGroupKeepsNoDroppedJob pins that an active user's jobs list holds
// no record past its length: group clears the list before regrouping
// it, so a user whose runnable set shrank does not pin the dropped
// jobs' records, and with them their blocks, for as long as the user
// stays active. 200 users × 25 jobs arrive and finish over 150 rounds,
// trading on; after every round each active user's jobs[len:cap] must
// be all nil. Emptying the list without clearing it left 6,974 such
// pointers, summed over the rounds.
func TestGroupKeepsNoDroppedJob(t *testing.T) {
	const users, jobsPerUser, rounds = 200, 25, 150
	cluster := gpu.MustNew(
		gpu.Spec{Gen: gpu.K80, Servers: 50, GPUsPerSrv: 4},
		gpu.Spec{Gen: gpu.P100, Servers: 50, GPUsPerSrv: 4},
		gpu.Spec{Gen: gpu.V100, Servers: 50, GPUsPerSrv: 4},
	)
	zoo := workload.DefaultZoo()
	specs := make([]workload.UserSpec, users)
	for i := range specs {
		specs[i] = workload.UserSpec{User: job.UserID(fmt.Sprintf("user%03d", i)), NumJobs: jobsPerUser, ArrivalRatePerHour: 0.7, MeanK80Hours: 2}
	}
	jobs, err := workload.Generate(zoo, workload.Config{Seed: 42, Users: specs})
	if err != nil {
		t.Fatal(err)
	}
	policy := MustNewFairPolicy(FairConfig{EnableTrading: true})
	s, err := New(Config{Cluster: cluster, Specs: jobs, Quantum: 360, Seed: 42, Audit: AuditStrict}, policy)
	if err != nil {
		t.Fatal(err)
	}
	stale := 0
	for r := 0; r < rounds; r++ {
		if ran, err := s.Step(simclock.Forever); !ran || err != nil {
			t.Fatalf("round %d: ran=%v err=%v", r, ran, err)
		}
		for _, us := range policy.users {
			for _, js := range us.jobs[len(us.jobs):cap(us.jobs)] {
				if js != nil {
					stale++
				}
			}
		}
	}
	finished := len(s.Result().Finished)
	t.Logf("%d jobs finished in %d rounds; %d records held past a jobs list's length", finished, rounds, stale)
	if finished < users {
		t.Fatalf("only %d jobs finished: the runnable sets do not shrink", finished)
	}
	if stale != 0 {
		t.Errorf("active users' jobs lists hold %d records past their length", stale)
	}
}
