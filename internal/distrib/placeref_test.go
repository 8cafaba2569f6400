package distrib

import (
	"slices"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/placement"
	"repro/internal/workload"
)

// decisionTap keeps what the engine is about to place — the policy's
// requests and the down set it was shown — and what it then reports
// having executed.
type decisionTap struct {
	core.Policy
	run      []placement.Request
	down     gpu.ServerSet
	ran      []core.RanInfo
	unplaced []job.ID
}

func (p *decisionTap) Decide(st *core.RoundState) core.Decision {
	dec := p.Policy.Decide(st)
	p.run = slices.Clone(dec.Run)
	p.down.CopyFrom(st.Down)
	return dec
}

func (p *decisionTap) Executed(rep *core.ExecReport) {
	p.ran = slices.Clone(rep.Ran)
	p.unplaced = slices.Clone(rep.Unplaced)
	p.Policy.Executed(rep)
}

// TestCentralPlacementMatchesPlaceReference: the central's engine
// places through the persistent index, fed agent failures (the
// failure detector's unreachable set) as deltas. Round by round —
// through an agent dying, being suspected, its jobs moving off, and its
// rejoin — where the engine put each job must be where the rescanning
// placement.Place puts it from the same prev, requests and down set.
// The engine is observed from outside: its placement table before and
// after the round, and the policy's view of the round either side.
func TestCentralPlacementMatchesPlaceReference(t *testing.T) {
	hub := comm.NewHub()
	ep := attach(t, hub, "central")
	gens := []gpu.Generation{gpu.K80, gpu.K80, gpu.V100, gpu.V100}
	startAgents(t, hub, gens[:3], 2) // agent-0..2
	// agent-3 is the victim: the test keeps its endpoint.
	victimTr := attach(t, hub, "agent-3")
	victim, err := NewAgent(victimTr, "central", gpu.V100, 2)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = victim.Run() }() // ends with ErrTransportClosed at the kill

	var specs []job.Spec
	specs = append(specs, workload.BatchJobs("alice", zoo.MustGet("resnet50"), 2, 4, 40)...)
	specs = append(specs, workload.BatchJobs("bob", zoo.MustGet("gru"), 5, 1, 40)...)
	specs = append(specs, workload.BatchJobs("carol", zoo.MustGet("lstm"), 3, 2, 40)...)
	specs, _ = workload.AssignIDs(specs)
	tap := &decisionTap{Policy: core.MustNewFairPolicy(core.FairConfig{EnableTrading: true})}
	c, err := NewCentral(ep, tap, CentralConfig{
		Specs: specs, Quantum: 360,
		Retry: comm.RetryPolicy{MaxAttempts: 1}, // a dead endpoint fails at once
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForAgents(4, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	const victimIdx = 3 // agents sort by name
	victimSrv := gpu.ServerID(victimIdx)

	// step runs one round and checks it against the reference.
	cluster := c.ecfg.Cluster
	step := func() (usedVictim bool) {
		t.Helper()
		prev := c.eng.Placement()
		for id, devs := range prev {
			prev[id] = slices.Clone(devs)
		}
		before := c.eng.Rounds()
		if _, err := c.Steps(1); err != nil {
			t.Fatal(err)
		}
		round := c.eng.Rounds()
		if round != before+1 {
			t.Fatalf("round %d did not run", before+1)
		}
		want := placement.Place(cluster, prev, tap.run, placement.Options{AllowMigration: true, Down: &tap.down})
		// No job here finishes, so after the round the engine's table
		// holds this round's devices for every job it placed.
		got := c.eng.Placement()
		for id, devs := range want.Assignment {
			if !slices.Equal(got[id], devs) {
				t.Fatalf("round %d (victim down %v): job %d on %v, reference %v", round, tap.down.Has(victimSrv), id, got[id], devs)
			}
			for _, d := range devs {
				usedVictim = usedVictim || cluster.Device(d).Server == victimSrv
			}
		}
		// A job the reference leaves out keeps the devices it had.
		for id, devs := range got {
			if _, placed := want.Assignment[id]; !placed && !slices.Equal(devs, prev[id]) {
				t.Fatalf("round %d: job %d moved to %v though the reference does not place it", round, id, devs)
			}
		}
		// Every placed job whose agents answered ran, migrated exactly
		// when the reference says so; nothing else ran.
		for _, info := range tap.ran {
			id := info.Job
			if _, placed := want.Assignment[id]; !placed {
				t.Fatalf("round %d: job %d ran, the reference does not place it", round, id)
			}
			if _, moved := slices.BinarySearch(want.Migrated, id); moved != info.Migrated {
				t.Fatalf("round %d: job %d migrated=%v, reference %v", round, id, info.Migrated, moved)
			}
		}
		if !slices.Equal(tap.unplaced, want.Unplaced) {
			t.Fatalf("round %d: unplaced %v, reference %v", round, tap.unplaced, want.Unplaced)
		}
		return usedVictim
	}

	used := false
	for i := 0; i < 4; i++ {
		used = step() || used
	}
	if !used {
		t.Fatal("the victim's server never held a job; the kill would test nothing")
	}

	_ = victimTr.Close() // the agent dies: plans to it are undeliverable
	sawDown := false
	for i := 0; i < suspectThreshold+3; i++ {
		usedNow := step()
		if tap.down.Has(victimSrv) {
			sawDown = true
			if usedNow {
				t.Fatalf("round %d placed on the down server", c.eng.Rounds())
			}
		}
	}
	if !sawDown || c.agents[victimIdx].missed < suspectThreshold {
		t.Fatalf("victim never suspected (missed %d)", c.agents[victimIdx].missed)
	}

	// Rejoin under the same name: a fresh endpoint and agent process.
	tr2 := attach(t, hub, "agent-3")
	reborn, err := NewAgent(tr2, "central", gpu.V100, 2)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- reborn.Run() }()
	back := false
	for i := 0; i < 50 && !back; i++ {
		usedNow := step()
		back = c.agents[victimIdx].missed == 0 && tap.down.Len() == 0 && usedNow
	}
	if !back {
		t.Fatalf("rejoined agent's server not back in use (missed %d, %d servers down)", c.agents[victimIdx].missed, tap.down.Len())
	}
	c.ShutdownAgents()
	if err := <-done; err != nil {
		t.Errorf("rejoined agent exited with %v", err)
	}
}
