package core

import (
	"fmt"
	"math"
	"reflect"
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
		jobs[1].NoteSlot(1) // as an engine would admit them, in slots of their own
		dec := p.Decide(&RoundState{
			Quantum: 360, Cluster: cluster, Jobs: jobs,
			Tickets: map[job.UserID]float64{"u": 1}, Prof: profiler.MustNew(0, 1),
		})
		// Equal pass, so the wider gang is granted first; the user's whole
		// share (their demand, 10 GPUs) funds both from credit.
		if len(dec.Run) != 2 || dec.Run[0].Job.ID != 2 || !p.jobs[0].viaCredit || !p.jobs[1].viaCredit {
			t.Fatalf("want both jobs credit-funded, wide first; got %+v", dec.Run)
		}
		p.users[0].credit[gpu.K80] = credit // "u", the only user, at position 0
		p.Executed(&ExecReport{})           // fragmentation placed neither
		want := (credit + wide) + narrow
		if got := p.Credit("u")[gpu.K80]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("policy %d: credit after refunds %.17g, want grant order's %.17g", i, got, want)
		}
	}
}

// TestGroupKeepsNoDroppedJob pins that no table of the policy holds a
// job past its length. A job or user row holds no pointer (its job is
// RoundState.Jobs[at]), so a table of rows cannot pin one; the one table
// of jobs, the Decision.Run buffer, is cleared by Decide past a shorter
// round's requests, so a runnable set that shrank does not pin the
// dropped jobs for as long as the policy keeps the storage. 200 users ×
// 25 jobs arrive and finish over 150 rounds, trading on; after every
// round the buffer past the round's requests must hold no job. Leaving
// a longer round's requests there left 2,540 such pointers, summed
// over the rounds.
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
	for _, row := range []reflect.Type{reflect.TypeFor[jobRow](), reflect.TypeFor[userRow]()} {
		for i := range row.NumField() {
			if f := row.Field(i); f.Type.Kind() == reflect.Pointer {
				t.Fatalf("%v.%s is a pointer: a table of rows past its length could pin what it points to", row, f.Name)
			}
		}
	}
	stale := 0
	for r := 0; r < rounds; r++ {
		if ran, err := s.Step(simclock.Forever); !ran || err != nil {
			t.Fatalf("round %d: ran=%v err=%v", r, ran, err)
		}
		for _, req := range policy.run[len(policy.run):cap(policy.run)] {
			if req.Job != nil {
				stale++
			}
		}
	}
	finished := len(s.Result().Finished)
	t.Logf("%d jobs finished in %d rounds; %d jobs held past a table's length", finished, rounds, stale)
	if finished < users {
		t.Fatalf("only %d jobs finished: the runnable sets do not shrink", finished)
	}
	if stale != 0 {
		t.Errorf("the policy's tables hold %d jobs past their length", stale)
	}
}
