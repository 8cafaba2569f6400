package distrib

import (
	"maps"
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

// decisionTap keeps what the central is about to place: the policy's
// requests and the down set it was shown.
type decisionTap struct {
	core.Policy
	run  []placement.Request
	down map[gpu.ServerID]bool
}

func (p *decisionTap) Decide(st *core.RoundState) core.Decision {
	dec := p.Policy.Decide(st)
	p.run = slices.Clone(dec.Run)
	p.down = maps.Clone(st.Down)
	return dec
}

// TestCentralPlacementMatchesPlaceReference: the central places
// through the free-capacity index, fed agent failures as deltas. Round
// by round — through an agent dying, being suspected, its jobs moving
// off, and its rejoin — what it placed must be what the rescanning
// placement.Place computes from the same prev, requests and down set.
func TestCentralPlacementMatchesPlaceReference(t *testing.T) {
	hub := comm.NewHub()
	ep, err := hub.Attach("central")
	if err != nil {
		t.Fatal(err)
	}
	gens := []gpu.Generation{gpu.K80, gpu.K80, gpu.V100, gpu.V100}
	startAgents(t, hub, gens[:3], 2) // agent-0..2
	// agent-3 is the victim: the test keeps its endpoint.
	victimTr, err := hub.Attach("agent-3")
	if err != nil {
		t.Fatal(err)
	}
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
	step := func() (usedVictim bool) {
		t.Helper()
		prev := c.prev.Clone()
		before := c.rounds
		if _, err := c.Steps(1); err != nil {
			t.Fatal(err)
		}
		if c.rounds != before+1 {
			t.Fatalf("round %d did not run", before+1)
		}
		want := placement.Place(c.cluster, prev, tap.run, placement.Options{AllowMigration: true, Down: tap.down})
		got := placement.Assignment{}
		var migrated []job.ID
		for _, r := range c.planned {
			got[r.j.ID] = r.devs
			if r.migrated {
				migrated = append(migrated, r.j.ID)
			}
			for _, d := range r.devs {
				usedVictim = usedVictim || c.cluster.Device(d).Server == victimSrv
			}
		}
		if len(got) != len(want.Assignment) {
			t.Fatalf("round %d: placed %d jobs, reference %d", c.rounds, len(got), len(want.Assignment))
		}
		for id, devs := range want.Assignment {
			if !slices.Equal(got[id], devs) {
				t.Fatalf("round %d (down %v): job %d on %v, reference %v", c.rounds, tap.down, id, got[id], devs)
			}
		}
		if !slices.Equal(migrated, want.Migrated) || !slices.Equal(c.execRep.Unplaced, want.Unplaced) {
			t.Fatalf("round %d: migrated %v unplaced %v, reference %v %v",
				c.rounds, migrated, c.execRep.Unplaced, want.Migrated, want.Unplaced)
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
		if tap.down[victimSrv] {
			sawDown = true
			if usedNow {
				t.Fatalf("round %d placed on the down server", c.rounds)
			}
		}
	}
	if !sawDown || c.missed[victimIdx] < suspectThreshold {
		t.Fatalf("victim never suspected (missed %d)", c.missed[victimIdx])
	}

	// Rejoin under the same name: a fresh endpoint and agent process.
	tr2, err := hub.Attach("agent-3")
	if err != nil {
		t.Fatal(err)
	}
	reborn, err := NewAgent(tr2, "central", gpu.V100, 2)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- reborn.Run() }()
	back := false
	for i := 0; i < 50 && !back; i++ {
		usedNow := step()
		back = c.missed[victimIdx] == 0 && len(tap.down) == 0 && usedNow
	}
	if !back {
		t.Fatalf("rejoined agent's server not back in use (missed %d, down %v)", c.missed[victimIdx], tap.down)
	}
	c.ShutdownAgents()
	if err := <-done; err != nil {
		t.Errorf("rejoined agent exited with %v", err)
	}
}
