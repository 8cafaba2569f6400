package distrib

import (
	"errors"
	"fmt"
	"maps"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/placement"
	"repro/internal/profiler"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// seamSpecs is a small scenario that exercises everything a quantum can
// be: staggered arrivals, finishes, trading (so jobs migrate between
// generations) and gang-4 jobs that span two 2-GPU servers.
func seamSpecs(t *testing.T) []job.Spec {
	t.Helper()
	var specs []job.Spec
	specs = append(specs, workload.BatchJobs("alice", zoo.MustGet("resnet50"), 3, 4, 0.9)...)
	specs = append(specs, workload.BatchJobs("bob", zoo.MustGet("gru"), 5, 1, 0.6)...)
	specs = append(specs, workload.BatchJobs("carol", zoo.MustGet("lstm"), 4, 2, 0.7)...)
	for i := range specs {
		specs[i].Arrival = simclock.Time(500 * (i % 7)) // off the quantum grid
	}
	specs, err := workload.AssignIDs(specs)
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// TestRemoteMatchesLocal is the seam's acceptance test (ROADMAP item
// 2): one zero-fault scenario, run once on the engine with the local
// executor and once through Central and hub agents, with the same
// noiseless profiler, lands on the same core.CanonicalDigest — rounds,
// trace events, finishes, migrations, and every user's occupied, fair
// and useful GPU-seconds. Nothing about a quantum is decided outside
// the engine, so who carried it out cannot show — nor how long a lease
// the plans grant: a lease of zero rounds and one of four run the one
// protocol.
func TestRemoteMatchesLocal(t *testing.T) {
	for _, lease := range []int{0, 4} {
		t.Run(fmt.Sprintf("LeaseRounds=%d", lease), func(t *testing.T) { remoteMatchesLocal(t, lease) })
	}
}

func remoteMatchesLocal(t *testing.T, lease int) {
	hub := comm.NewHub()
	ep := attach(t, hub, "central")
	gens := []gpu.Generation{gpu.K80, gpu.K80, gpu.K80, gpu.V100, gpu.V100}
	waits := startAgents(t, hub, gens, 2)
	newPolicy := func() core.Policy { return core.MustNewFairPolicy(core.FairConfig{EnableTrading: true}) }
	c, err := NewCentral(ep, newPolicy(), CentralConfig{
		Specs:       seamSpecs(t),
		Tickets:     map[job.UserID]float64{"alice": 2},
		Quantum:     360,
		LeaseRounds: lease,
	})
	if err != nil {
		t.Fatal(err)
	}
	// CentralConfig has no ticket-change field; the engine's config does.
	c.ecfg.TicketChanges = []core.TicketChange{{At: 1800, User: "bob", Tickets: 3}}
	if err := c.WaitForAgents(len(gens), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(10000); err != nil {
		t.Fatal(err)
	}
	for _, w := range waits {
		if err := <-w; err != nil {
			t.Errorf("agent: %v", err)
		}
	}
	remote := c.eng.Result()

	// The same engine configuration — the cluster the agents defined
	// included — with the local executor.
	sim, err := core.NewWithExecutor(c.ecfg, newPolicy(), core.LocalExecutor{}, profiler.MustNew(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	local, err := sim.Run(simclock.Forever)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := core.CanonicalDigest(remote), core.CanonicalDigest(local); got != want {
		t.Errorf("digest through Central %s, local executor %s\nremote: %d rounds, %d events, usage %v\nlocal:  %d rounds, %d events, usage %v",
			got, want, remote.Rounds, remote.Log.Len(), remote.TotalUsageByUser(),
			local.Rounds, local.Log.Len(), local.TotalUsageByUser())
	}
	if remote.Audit == nil || !remote.Audit.Clean() || remote.Audit.Mode != core.AuditStrict {
		t.Errorf("distributed run not strictly audited and clean: %+v", remote.Audit)
	}
	// The scenario exercised what it claims to.
	spanned := false
	for _, j := range local.Finished {
		spanned = spanned || j.Gang == 4 // no server has 4 GPUs
	}
	if local.Unfinished != 0 || local.Migrations == 0 || !spanned || local.Rounds < 10 {
		t.Errorf("scenario too weak: %d unfinished, %d migrations, multi-server gang finished: %v, %d rounds",
			local.Unfinished, local.Migrations, spanned, local.Rounds)
	}
}

// TestCentralAuditDrillDumpsFlight: the auditor and the flight recorder
// are the engine's, so a distributed run has them. A drill at round 2
// aborts Run with an *core.AuditError and leaves a parseable dump whose
// window ends at the drill round.
func TestCentralAuditDrillDumpsFlight(t *testing.T) {
	hub := comm.NewHub()
	ep, _ := hub.Attach("central")
	startAgents(t, hub, []gpu.Generation{gpu.K80}, 4)
	specs, _ := workload.AssignIDs(workload.BatchJobs("u", zoo.MustGet("vae"), 4, 1, 20))
	path := filepath.Join(t.TempDir(), "flight.json")
	c, err := NewCentral(ep, core.MustNewFairPolicy(core.FairConfig{}), CentralConfig{
		Specs: specs, Quantum: 360, Obs: obs.New(), Flight: flight.New(8, path),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.ecfg.AuditDrillRound = 2
	if err := c.WaitForAgents(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(10)
	c.ShutdownAgents()
	var av *core.AuditError
	if !errors.As(err, &av) || av.Violation.Invariant != core.InvDrill {
		t.Fatalf("Run returned %v, want the drill's *core.AuditError", err)
	}
	d, err := flight.ReadDump(path)
	if err != nil {
		t.Fatalf("violation left no parseable dump: %v", err)
	}
	if n := len(d.Rounds); d.Reason != "audit-violation" || n == 0 || d.Rounds[n-1].Round != 2 {
		t.Errorf("dump reason %q with %d rounds; want audit-violation, window ending at round 2", d.Reason, n)
	}
}

// badPolicy misbehaves in one of the ways core.checkDecision catches.
type badPolicy struct {
	core.Policy
	twice, overcommit bool
}

func (p *badPolicy) Decide(st *core.RoundState) core.Decision {
	dec := p.Policy.Decide(st)
	if p.twice && len(dec.Run) > 0 {
		dec.Run = append(dec.Run, dec.Run[0])
	}
	if p.overcommit {
		dec.Run = dec.Run[:0]
		for _, j := range st.Jobs { // every job at once, capacity or not
			dec.Run = append(dec.Run, placement.Request{Job: j, Gen: gpu.K80})
		}
	}
	return dec
}

// TestCentralRejectsWhatCoreRejects: the distributed mode used to accept
// inputs core refuses. With the engine behind Central they surface as
// core's own errors — Config.Validate's from WaitForAgents, where the
// inventory the workload must fit becomes known, checkDecision's from
// Run.
func TestCentralRejectsWhatCoreRejects(t *testing.T) {
	one := func(n, gang int) []job.Spec {
		specs, _ := workload.AssignIDs(workload.BatchJobs("u", zoo.MustGet("lstm"), n, gang, 1))
		return specs
	}
	dup := one(2, 1)
	dup[1].ID = dup[0].ID
	fair := func() core.Policy { return core.MustNewFairPolicy(core.FairConfig{}) }
	cases := []struct {
		name   string
		specs  []job.Spec
		policy core.Policy
		atWait bool // the error comes from WaitForAgents, not Run
		want   string
	}{
		{"duplicate job ID", dup, fair(), true, "duplicate job ID"},
		{"gang larger than every generation", one(1, 8), fair(), true, "exceeds every usable generation"},
		{"policy returns a job twice", one(2, 1), &badPolicy{Policy: fair(), twice: true}, false, "twice"},
		{"policy over-commits a generation", one(6, 1), &badPolicy{Policy: fair(), overcommit: true}, false, "overcommitted"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hub := comm.NewHub()
			ep, _ := hub.Attach("central")
			startAgents(t, hub, []gpu.Generation{gpu.K80}, 4)
			c, err := NewCentral(ep, tc.policy, CentralConfig{Specs: tc.specs, Quantum: 360})
			if err != nil {
				t.Fatal(err)
			}
			err = c.WaitForAgents(1, 5*time.Second)
			if !tc.atWait {
				if err != nil {
					t.Fatal(err)
				}
				_, err = c.Run(5)
			}
			c.ShutdownAgents()
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.HasPrefix(err.Error(), "core: ") {
				t.Fatalf("got %v, want core's %q error", err, tc.want)
			}
		})
	}
}

// Regression: NewCentral wrote default tickets into the caller's
// CentralConfig.Tickets map. The engine copies tickets, as core.New
// does; the caller's map is theirs.
func TestNewCentralLeavesCallersTicketsAlone(t *testing.T) {
	hub := comm.NewHub()
	ep, _ := hub.Attach("central")
	waits := startAgents(t, hub, []gpu.Generation{gpu.K80}, 4)
	var specs []job.Spec
	specs = append(specs, workload.BatchJobs("alice", zoo.MustGet("lstm"), 2, 1, 0.3)...)
	specs = append(specs, workload.BatchJobs("bob", zoo.MustGet("gru"), 2, 1, 0.3)...)
	specs, _ = workload.AssignIDs(specs)
	tickets := map[job.UserID]float64{"alice": 2} // bob defaults to 1
	before := maps.Clone(tickets)
	c, err := NewCentral(ep, core.MustNewFairPolicy(core.FairConfig{}), CentralConfig{
		Specs: specs, Tickets: tickets, Quantum: 360,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForAgents(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	sum, err := c.Run(50)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range waits {
		<-w
	}
	if sum.Unfinished != 0 {
		t.Fatalf("%d unfinished", sum.Unfinished)
	}
	if !maps.Equal(tickets, before) {
		t.Errorf("caller's tickets map is now %v, was %v", tickets, before)
	}
}
