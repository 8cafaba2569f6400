package distrib

import (
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/workload"
)

// TestDistributedCrossRunDeterminism runs the same distributed
// workload twice over fresh hubs and requires bit-identical per-user
// usage and finish times. Agent reports arrive in whatever order the
// wire delivers them, so this is the regression harness for applying
// them in job-ID order (usage sums, profiler observations) and for the
// ordered walks in publishShares/RecordPlacement.
func TestDistributedCrossRunDeterminism(t *testing.T) {
	run := func() *Summary {
		hub := comm.NewHub()
		central := attach(t, hub, "central")
		waits := startAgents(t, hub, []gpu.Generation{gpu.K80, gpu.V100}, 4)

		var specs []job.Spec
		specs = append(specs, workload.BatchJobs("alice", zoo.MustGet("lstm"), 4, 1, 0.5)...)
		specs = append(specs, workload.BatchJobs("bob", zoo.MustGet("gru"), 4, 1, 0.5)...)
		specs, _ = workload.AssignIDs(specs)

		c, err := NewCentral(central, core.MustNewFairPolicy(core.FairConfig{EnableTrading: true}),
			CentralConfig{Specs: specs, Quantum: 360})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.WaitForAgents(2, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		sum, err := c.Run(100)
		if err != nil {
			t.Fatal(err)
		}
		c.ShutdownAgents()
		for _, w := range waits {
			select {
			case <-w:
			case <-time.After(5 * time.Second):
				t.Fatal("agent did not shut down")
			}
		}
		return sum
	}

	s1, s2 := run(), run()
	if len(s1.Finished) != len(s2.Finished) || s1.Rounds != s2.Rounds {
		t.Fatalf("runs differ: %d/%d finished, %d/%d rounds",
			len(s1.Finished), len(s2.Finished), s1.Rounds, s2.Rounds)
	}
	for u, v := range s1.UsageByUser {
		if s2.UsageByUser[u] != v {
			t.Errorf("usage differs for %s: %v vs %v", u, v, s2.UsageByUser[u])
		}
	}
	for i := range s1.Finished {
		a, b := s1.Finished[i], s2.Finished[i]
		if a.ID != b.ID || a.FinishTime() != b.FinishTime() {
			t.Errorf("finish %d differs: job %d@%v vs job %d@%v",
				i, a.ID, a.FinishTime(), b.ID, b.FinishTime())
		}
	}
}

// planRecorder sits between the central and its transport and keeps
// the checksum of every plan sent (the retrier seals before it sends).
// The sum covers every field of the plan, so the sequence is a
// fingerprint of the bytes the central put on the wire.
type planRecorder struct {
	comm.Transport
	sums    []uint64
	spanned bool // some plan carried a cross-server shard
}

func (p *planRecorder) Send(to string, e comm.Envelope) error {
	if plan, ok := e.Msg.(comm.RoundPlan); ok {
		p.sums = append(p.sums, e.Sum)
		for _, as := range plan.Jobs {
			p.spanned = p.spanned || as.Shard < 1
		}
	}
	return p.Transport.Send(to, e)
}

// TestPlanBytesDeterministic: two runs of one seed must send the same
// plans in the same order, field for field — including the order of a
// plan's jobs (it used to follow a map) and the progress of gangs
// whose shards report from several agents in whatever order the wire
// delivers them (it used to be summed in that order).
func TestPlanBytesDeterministic(t *testing.T) {
	run := func() *planRecorder {
		hub := comm.NewHub()
		ep := attach(t, hub, "central")
		rec := &planRecorder{Transport: ep}
		// 2-GPU servers: every gang-4 job spans two of them.
		waits := startAgents(t, hub, []gpu.Generation{gpu.K80, gpu.K80, gpu.K80, gpu.V100, gpu.V100}, 2)

		var specs []job.Spec
		specs = append(specs, workload.BatchJobs("alice", zoo.MustGet("resnet50"), 3, 4, 2)...)
		specs = append(specs, workload.BatchJobs("bob", zoo.MustGet("gru"), 6, 1, 1)...)
		specs = append(specs, workload.BatchJobs("carol", zoo.MustGet("lstm"), 4, 2, 1.5)...)
		specs, _ = workload.AssignIDs(specs)
		c, err := NewCentral(rec, core.MustNewFairPolicy(core.FairConfig{EnableTrading: true}),
			CentralConfig{Specs: specs, Quantum: 360})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.WaitForAgents(5, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(40); err != nil {
			t.Fatal(err)
		}
		for _, w := range waits {
			<-w
		}
		return rec
	}
	a, b := run(), run()
	if len(a.sums) == 0 || !a.spanned {
		t.Fatalf("%d plans sent, cross-server shard seen: %v — the scenario exercises nothing", len(a.sums), a.spanned)
	}
	if len(a.sums) != len(b.sums) {
		t.Fatalf("runs sent %d and %d plans", len(a.sums), len(b.sums))
	}
	for i := range a.sums {
		if a.sums[i] == 0 {
			t.Fatalf("plan %d went out unsealed", i)
		}
		if a.sums[i] != b.sums[i] {
			t.Fatalf("plan %d of %d differs between two runs of one seed (sums %x vs %x)", i, len(a.sums), a.sums[i], b.sums[i])
		}
	}
}
