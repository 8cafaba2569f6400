package distrib

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/workload"
)

// Regression: a gang spanning two servers produces two shard reports
// per round. Each shard's UsedSecs must be weighted by its fraction
// of the gang before merging, or useful GPU-seconds double-count and
// exceed the occupied GPU-seconds the user is charged for.
func TestGangSpanningServersNoDoubleCount(t *testing.T) {
	hub := comm.NewHub()
	central, _ := hub.Attach("central")
	// Two 2-GPU servers: a gang-4 job can only run split 2+2.
	waits := startAgents(t, hub, []gpu.Generation{gpu.K80, gpu.K80}, 2)

	specs := workload.BatchJobs("alice", zoo.MustGet("resnet50"), 1, 4, 0.4)
	specs, _ = workload.AssignIDs(specs)
	c, err := NewCentral(central, core.MustNewFairPolicy(core.FairConfig{}), CentralConfig{
		Specs: specs, Quantum: 360,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForAgents(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	sum, err := c.Run(60)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Finished) != 1 {
		t.Fatalf("gang-4 job did not finish across two servers (finished %d)", len(sum.Finished))
	}
	useful := sum.Finished[0].AttainedService()
	occupied := sum.UsageByUser["alice"]
	if useful > occupied+1e-6 {
		t.Errorf("useful gang GPU-seconds %v exceed occupied %v: shard double-count", useful, occupied)
	}
	if useful <= 0 {
		t.Error("no useful service recorded")
	}
	for _, w := range waits {
		<-w
	}
}

// Duplicate Register messages (an agent retrying because an ack was
// slow) must not corrupt the inventory: a matching duplicate is
// idempotent, a mismatched one is rejected with a reason.
func TestDuplicateRegistrationIdempotent(t *testing.T) {
	hub := comm.NewHub()
	central, _ := hub.Attach("central")
	dup := attach(t, hub, "dup")
	// The fake agent seals and sequences what it sends, like a real one.
	retry := comm.NewRetrier(comm.RetryPolicy{})
	reg := comm.Envelope{From: "dup", Msg: comm.Register{Agent: "dup", Gen: int(gpu.K80), GPUs: 2}}
	for i := 0; i < 3; i++ { // original + two retries
		if err := retry.Send(dup, "central", reg); err != nil {
			t.Fatal(err)
		}
	}
	// A mismatched "duplicate" claiming different inventory.
	if err := retry.Send(dup, "central", comm.Envelope{From: "dup",
		Msg: comm.Register{Agent: "dup", Gen: int(gpu.V100), GPUs: 8}}); err != nil {
		t.Fatal(err)
	}
	// agent-0 starts after dup's four are queued, so all of them are read
	// while the inventory is open: WaitForAgents stops reading at the
	// second agent, and a later one would be taken as a rejoin.
	waits := startAgents(t, hub, []gpu.Generation{gpu.K80}, 2)

	specs := workload.BatchJobs("u", zoo.MustGet("lstm"), 2, 1, 0.3)
	specs, _ = workload.AssignIDs(specs)
	o := obs.New()
	c, err := NewCentral(central, core.MustNewFairPolicy(core.FairConfig{}), CentralConfig{
		Specs: specs, Quantum: 360, Obs: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForAgents(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if len(c.agents) != 2 {
		t.Fatalf("inventory has %d agents after duplicate registrations, want 2", len(c.agents))
	}
	if c.ecfg.Cluster.NumDevices() != 4 {
		t.Fatalf("cluster has %d GPUs, want 4 (2+2): duplicates corrupted inventory", c.ecfg.Cluster.NumDevices())
	}

	// The mismatched attempt got a rejection ack with a reason; the
	// matching duplicates got the one OK ack everyone gets.
	sawReject, sawOK := false, false
	timeout := time.After(2 * time.Second)
	for !sawReject || !sawOK {
		select {
		case env := <-dup.Recv():
			if ack, ok := env.Msg.(comm.RegisterAck); ok {
				if ack.OK {
					sawOK = true
				} else if strings.Contains(ack.Reason, "already registered") {
					sawReject = true
				}
			}
		case <-timeout:
			t.Fatalf("acks missing: reject=%v ok=%v", sawReject, sawOK)
		}
	}

	var sb strings.Builder
	_ = o.WritePrometheus(&sb) // strings.Builder writes cannot fail
	if !strings.Contains(sb.String(), `gf_protocol_events_total{event="register_duplicate"} 2`) {
		t.Error("duplicate registrations not counted")
	}

	// The run must still work; the phantom inventory would have made
	// placement address GPUs that do not exist.
	go func() {
		for env := range dup.Recv() { // serve dup's shard like a real agent
			if plan, ok := env.Msg.(comm.RoundPlan); ok {
				a := &Agent{tr: dup, central: "central"}
				_ = retry.Send(dup, "central", comm.Envelope{From: "dup", Msg: a.execute(plan)})
			}
			if _, ok := env.Msg.(comm.Shutdown); ok {
				return
			}
		}
	}()
	sum, err := c.Run(50)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Unfinished != 0 {
		t.Errorf("%d jobs unfinished after duplicate registrations", sum.Unfinished)
	}
	for _, w := range waits {
		<-w
	}
}

// Summary.Rounds counts executed scheduling rounds only: quanta that
// pass while waiting for the first arrival must advance virtual time
// but not the round counter.
func TestRoundsExcludesIdleQuanta(t *testing.T) {
	hub := comm.NewHub()
	central, _ := hub.Attach("central")
	startAgents(t, hub, []gpu.Generation{gpu.K80}, 4)

	specs := workload.BatchJobs("u", zoo.MustGet("lstm"), 2, 1, 0.3)
	for i := range specs {
		specs[i].Arrival = 3 * 360 // three idle quanta before any work exists
	}
	specs, _ = workload.AssignIDs(specs)
	c, err := NewCentral(central, core.MustNewFairPolicy(core.FairConfig{}), CentralConfig{
		Specs: specs, Quantum: 360,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForAgents(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	sum, err := c.Run(60)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Unfinished != 0 {
		t.Fatalf("%d unfinished", sum.Unfinished)
	}
	elapsed := int(sum.VirtualSeconds / 360)
	if sum.Rounds != elapsed-3 {
		t.Errorf("Rounds = %d with %d quanta elapsed and 3 idle; want %d",
			sum.Rounds, elapsed, elapsed-3)
	}
	// The old derivation (now / quantum) would have returned elapsed.
	if sum.Rounds >= elapsed {
		t.Errorf("Rounds %d counts idle quanta (elapsed %d)", sum.Rounds, elapsed)
	}
}

// Rejoin reconciliation: a known agent announcing its original
// inventory is welcomed back and its failure counter reset; unknown
// agents and changed inventories are rejected with a reason.
func TestRejoinReconciliation(t *testing.T) {
	hub := comm.NewHub()
	central, _ := hub.Attach("central")
	agentTr, _ := hub.Attach("agent-0")
	stranger, _ := hub.Attach("stranger")

	if err := comm.NewRetrier(comm.RetryPolicy{}).Send(agentTr, "central", comm.Envelope{From: "agent-0",
		Msg: comm.Register{Agent: "agent-0", Gen: int(gpu.K80), GPUs: 4}}); err != nil {
		t.Fatal(err)
	}
	specs := workload.BatchJobs("u", zoo.MustGet("lstm"), 1, 1, 0.3)
	specs, _ = workload.AssignIDs(specs)
	o := obs.New()
	c, err := NewCentral(central, core.MustNewFairPolicy(core.FairConfig{}), CentralConfig{
		Specs: specs, Quantum: 360, Obs: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForAgents(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	drainAcks(t, agentTr) // registration ack

	c.setMissed(0, suspectThreshold) // the agent went silent, server marked down
	if !c.downServers().Has(0) || c.downServers().Len() != 1 {
		t.Fatal("suspected agent's server not marked down")
	}

	// Matching rejoin: accepted, failure counter reset, server back up.
	if !c.handleRejoin(comm.Register{Agent: "agent-0", Gen: int(gpu.K80), GPUs: 4}) {
		t.Error("matching rejoin rejected")
	}
	if c.agents[0].missed != 0 || c.nMissed != 0 || c.downServers().Len() != 0 {
		t.Errorf("rejoin did not reset failure state: missed=%d (%d agents) down=%d",
			c.agents[0].missed, c.nMissed, c.downServers().Len())
	}
	if ack := recvAck(t, agentTr); !ack.OK {
		t.Errorf("matching rejoin acked with %+v", ack)
	}

	// Same name, different inventory: rejected.
	if c.handleRejoin(comm.Register{Agent: "agent-0", Gen: int(gpu.K80), GPUs: 8}) {
		t.Error("inventory-changing rejoin accepted")
	}
	if ack := recvAck(t, agentTr); ack.OK || !strings.Contains(ack.Reason, "inventory mismatch") {
		t.Errorf("mismatch rejoin acked with %+v", ack)
	}

	// Unknown agent: rejected (inventory is fixed after startup).
	if c.handleRejoin(comm.Register{Agent: "stranger", Gen: int(gpu.K80), GPUs: 4}) {
		t.Error("unknown agent's rejoin accepted")
	}
	if ack := recvAck(t, stranger); ack.OK || !strings.Contains(ack.Reason, "unknown agent") {
		t.Errorf("stranger rejoin acked with %+v", ack)
	}

	c.summary() // no round ran: reading the result flushes the engine's stream to the observer
	var sb strings.Builder
	_ = o.WritePrometheus(&sb) // strings.Builder writes cannot fail
	for _, want := range []string{
		`gf_protocol_events_total{event="rejoin_accepted"} 1`,
		`gf_protocol_events_total{event="rejoin_rejected"} 2`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("metrics missing %s", want)
		}
	}
}

// TestWaitForRejoinDropsCorruptRegistration: a restored central waiting
// for rejoins takes every envelope through the one inbound path, so a
// registration corrupted after sealing is counted as corrupt_detected
// and dropped — no ack, least of all the "inventory mismatch" rejection
// that would end the genuine agent's Run — and a clean registration
// sent afterwards rejoins.
func TestWaitForRejoinDropsCorruptRegistration(t *testing.T) {
	hub := comm.NewHub()
	central := attach(t, hub, "central")
	agentTr := attach(t, hub, "agent-0")
	specs, _ := workload.AssignIDs(workload.BatchJobs("alice", zoo.MustGet("lstm"), 2, 1, 0.45))
	o := obs.New()
	c, err := RestoreCentral(central, core.MustNewFairPolicy(core.FairConfig{}), CentralConfig{Quantum: 360, Obs: o}, &State{
		Epoch:  1,
		Agents: []AgentState{{Name: "agent-0", Gen: int(gpu.K80), GPUs: 2}},
		Engine: &core.Checkpoint{Pending: specs},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := comm.Register{Agent: "agent-0", Gen: int(gpu.K80), GPUs: 2}
	clean, err := comm.Seal(comm.Envelope{From: "agent-0", Seq: 1, Msg: reg})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := clean
	reg.GPUs += 1 << 20 // what netchaos's Corrupt does to a Register
	corrupt.Msg = reg
	if comm.Verify(corrupt) {
		t.Fatal("the mutated registration still verifies")
	}
	for _, env := range []comm.Envelope{corrupt, clean} {
		if err := agentTr.Send("central", env); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitForRejoin(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if ack := recvAck(t, agentTr); !ack.OK {
		t.Errorf("first ack to agent-0 is %+v, want the clean rejoin's OK", ack)
	}
	select {
	case env := <-agentTr.Recv():
		t.Errorf("agent-0 got a second message %+v: the corrupted registration was acted on", env.Msg)
	case <-time.After(50 * time.Millisecond):
	}
	c.summary() // no round ran: reading the result flushes the engine's stream to the observer
	for _, ev := range []struct {
		name string
		want float64
	}{{"corrupt_detected", 1}, {"rejoin_accepted", 1}, {"rejoin_rejected", 0}} {
		if n := o.Value("gf_protocol_events_total", ev.name); n != ev.want {
			t.Errorf("%s = %v, want %v", ev.name, n, ev.want)
		}
	}
}

func recvAck(t *testing.T, tr comm.Transport) comm.RegisterAck {
	t.Helper()
	for {
		select {
		case env := <-tr.Recv():
			if ack, ok := env.Msg.(comm.RegisterAck); ok {
				return ack
			}
		case <-time.After(2 * time.Second):
			t.Fatal("no ack arrived")
		}
	}
}

func drainAcks(t *testing.T, tr comm.Transport) {
	t.Helper()
	for {
		select {
		case <-tr.Recv():
		case <-time.After(50 * time.Millisecond):
			return
		}
	}
}

// Snapshot/restore fidelity: a central rebuilt from its snapshot
// carries identical state (its own snapshot is byte-identical) and
// resumes to the same per-user usage a never-crashed run produces.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	run := func(crashAfter int, dir string) map[job.UserID]float64 {
		hub := comm.NewHub()
		central, _ := hub.Attach("central")
		waits := startAgents(t, hub, []gpu.Generation{gpu.K80, gpu.K80}, 2)
		var specs []job.Spec
		specs = append(specs, workload.BatchJobs("alice", zoo.MustGet("lstm"), 2, 1, 0.45)...)
		specs = append(specs, workload.BatchJobs("bob", zoo.MustGet("gru"), 2, 1, 0.45)...)
		specs, _ = workload.AssignIDs(specs)
		cfg := CentralConfig{Specs: specs, Quantum: 360, SnapshotDir: dir}
		c, err := NewCentral(central, core.MustNewFairPolicy(core.FairConfig{}), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.WaitForAgents(2, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		if crashAfter > 0 {
			if _, err := c.Steps(crashAfter); err != nil {
				t.Fatal(err)
			}
			st, err := LoadSnapshot(dir)
			if err != nil {
				t.Fatal(err)
			}
			if st.Engine.Rounds != crashAfter {
				t.Fatalf("snapshot at round %d, want %d", st.Engine.Rounds, crashAfter)
			}
			// The old coordinator object is abandoned ("crashed");
			// the replacement resumes on the surviving transport.
			c, err = RestoreCentral(central, core.MustNewFairPolicy(core.FairConfig{}), cfg, st)
			if err != nil {
				t.Fatal(err)
			}
			// Structural fidelity: re-snapshotting the restored
			// central reproduces the file it was built from, except
			// that the restored incarnation runs one epoch ahead of
			// the snapshot's writer (that is the fencing contract).
			st.Epoch++
			a, _ := json.Marshal(st)
			b, _ := json.Marshal(c.Snapshot())
			if string(a) != string(b) {
				t.Errorf("restored state differs from snapshot:\n%s\nvs\n%s", a, b)
			}
		}
		sum, err := c.Run(60)
		if err != nil {
			t.Fatal(err)
		}
		if sum.Unfinished != 0 {
			t.Fatalf("%d unfinished (crashAfter=%d)", sum.Unfinished, crashAfter)
		}
		for _, w := range waits {
			if err := <-w; err != nil {
				t.Errorf("agent: %v", err)
			}
		}
		return sum.UsageByUser
	}

	baseline := run(0, t.TempDir())
	restored := run(2, t.TempDir())
	for u, want := range baseline {
		if got := restored[u]; got != want {
			t.Errorf("user %s usage after restore %v, want %v (baseline)", u, got, want)
		}
	}
}

// Failure-detector lifecycle over the wire: an agent that answers
// nothing is suspected after two missed reports and its jobs migrate;
// when it comes back and re-registers it is schedulable again and the
// run finishes with its help.
func TestFailureDetectorSuspectRecover(t *testing.T) {
	hub := comm.NewHub()
	central, _ := hub.Attach("central")
	startAgents(t, hub, []gpu.Generation{gpu.K80}, 4) // healthy agent-0

	// agent-z registers, then ignores everything for two rounds.
	zTr := attach(t, hub, "agent-z")
	if err := comm.NewRetrier(comm.RetryPolicy{}).Send(zTr, "central", comm.Envelope{From: "agent-z",
		Msg: comm.Register{Agent: "agent-z", Gen: int(gpu.K80), GPUs: 4}}); err != nil {
		t.Fatal(err)
	}

	specs := workload.BatchJobs("u", zoo.MustGet("lstm"), 6, 1, 0.5)
	specs, _ = workload.AssignIDs(specs)
	o := obs.New()
	c, err := NewCentral(central, core.MustNewFairPolicy(core.FairConfig{}), CentralConfig{
		Specs:         specs,
		Quantum:       360,
		ReportTimeout: 150 * time.Millisecond,
		Obs:           o,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForAgents(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// Swallow plans until suspected, then come back as a real agent on
	// the same transport — its Register is a rejoin.
	go func() {
		dropped := 0
		for env := range zTr.Recv() {
			if _, isPlan := env.Msg.(comm.RoundPlan); !isPlan {
				continue
			}
			dropped++
			if dropped < suspectThreshold {
				continue
			}
			a, err := NewAgent(zTr, "central", gpu.K80, 4)
			if err != nil {
				panic(err)
			}
			_ = a.Run() // exits on central crash; the rejoin below is the assertion
			return
		}
	}()

	sum, err := c.Run(80)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Unfinished != 0 {
		t.Fatalf("%d unfinished with a recovering agent", sum.Unfinished)
	}
	if sum.MissedReports < suspectThreshold {
		t.Errorf("only %d missed reports; the agent was never suspected", sum.MissedReports)
	}
	var sb strings.Builder
	_ = o.WritePrometheus(&sb) // strings.Builder writes cannot fail
	if !strings.Contains(sb.String(), `gf_protocol_events_total{event="rejoin_accepted"}`) {
		t.Error("recovered agent's re-registration was not reconciled as a rejoin")
	}
}

// TestRestoreCentralRefusesHostileSnapshot: snapshot values no central
// writes — an epoch below 1 (a fresh central is epoch 1, so the
// restored one would share or undercut a live incarnation's epoch),
// negative timeouts (a larger MaxAgentTimeouts budget) or a negative
// miss count (a slower failure detector) — are refused with an error
// and no central, where the unspoilt snapshot restores.
func TestRestoreCentralRefusesHostileSnapshot(t *testing.T) {
	specs, _ := workload.AssignIDs(workload.BatchJobs("alice", zoo.MustGet("lstm"), 2, 1, 0.45))
	snapshot := func() *State {
		return &State{
			Epoch: 3, Timeouts: 2,
			Agents: []AgentState{{Name: "agent-0", Gen: int(gpu.K80), GPUs: 2}, {Name: "agent-1", Gen: int(gpu.K80), GPUs: 2}},
			Missed: map[string]int{"agent-0": 1, "agent-1": 2},
			Engine: &core.Checkpoint{Pending: specs},
		}
	}
	restore := func(st *State) (*Central, error) {
		central, err := comm.NewHub().Attach("central")
		if err != nil {
			t.Fatal(err)
		}
		return RestoreCentral(central, core.MustNewFairPolicy(core.FairConfig{}), CentralConfig{Quantum: 360}, st)
	}
	if _, err := restore(snapshot()); err != nil {
		t.Fatalf("the unspoilt snapshot: %v", err)
	}
	for _, tc := range []struct {
		name  string
		spoil func(st *State)
	}{
		{"negative epoch", func(st *State) { st.Epoch = -1 }},
		{"epoch 0", func(st *State) { st.Epoch = 0 }},
		{"negative timeouts", func(st *State) { st.Timeouts = -7 }},
		{"negative missed", func(st *State) { st.Missed["agent-1"] = -1 }},
	} {
		st := snapshot()
		tc.spoil(st)
		if c, err := restore(st); err == nil || c != nil {
			t.Errorf("%s: RestoreCentral returned central %v, error %v; want an error and no central", tc.name, c != nil, err)
		}
	}
}
