package distrib

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/migrate"
	"repro/internal/obs"
	"repro/internal/simclock"
	"repro/internal/trace"
	"repro/internal/workload"
)

// resumeSecs is the default cost model's resume overhead: with the
// engine's arithmetic a job's occupied time is its work plus these.
var resumeSecs = migrate.Default().ResumeSecs

// oneJobSpecs builds a single single-GPU job sized to quanta quanta
// of useful K80 time.
func oneJobSpecs(t *testing.T, user string, quanta float64) []job.Spec {
	t.Helper()
	hours := quanta * 360 / simclock.Hour
	specs, err := workload.AssignIDs(workload.BatchJobs(job.UserID(user), zoo.MustGet("lstm"), 1, 1, hours))
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// TestReplayedReportCountedOnce is the idempotency regression test:
// an agent that delivers every report twice (byte-identical envelope,
// same seq) and additionally replays an old round's report under a
// fresh sequence number must still be charged exactly once per round.
// The duplicate copy dies at the dedup layer; the cross-round replay
// reaches the reconciliation queue and dies against the agent's
// window, which has that round counted.
func TestReplayedReportCountedOnce(t *testing.T) {
	hub := comm.NewHub()
	central := attach(t, hub, "central")
	tr := attach(t, hub, "agent-0")
	a, err := NewAgent(tr, "central", gpu.K80, 1)
	if err != nil {
		t.Fatal(err)
	}

	agentDone := make(chan error, 1)
	go func() {
		seq := uint64(1)
		send := func(rep comm.RoundReport, s uint64) (comm.Envelope, error) {
			e, err := comm.Seal(comm.Envelope{From: "agent-0", Seq: s, Msg: rep})
			if err != nil {
				return e, err
			}
			return e, tr.Send("central", e)
		}
		reg, err := comm.Seal(comm.Envelope{From: "agent-0", Seq: seq, Msg: comm.Register{
			Agent: "agent-0", Gen: int(gpu.K80), GPUs: 1,
		}})
		if err != nil {
			agentDone <- err
			return
		}
		if err := tr.Send("central", reg); err != nil {
			agentDone <- err
			return
		}
		var rep1 comm.RoundReport
		for env := range tr.Recv() {
			switch m := env.Msg.(type) {
			case comm.RoundPlan:
				rep := a.execute(m)
				seq++
				e, err := send(rep, seq)
				if err != nil {
					agentDone <- err
					return
				}
				// Deliver the exact same envelope again: the wire
				// duplicated it.
				if err := tr.Send("central", e); err != nil {
					agentDone <- err
					return
				}
				if m.Round == 1 {
					rep1 = rep
				}
				if m.Round == 2 {
					// Replay round 1's report as a fresh logical send
					// (new seq, like a backlog resend): it must be
					// recognized as already applied, not recharged.
					seq++
					if _, err := send(rep1, seq); err != nil {
						agentDone <- err
						return
					}
				}
			case comm.Shutdown:
				agentDone <- nil
				return
			}
		}
		agentDone <- nil
	}()

	ob := obs.New()
	c, err := NewCentral(central, core.MustNewFairPolicy(core.FairConfig{}), CentralConfig{
		Specs: oneJobSpecs(t, "alice", 2.2), Quantum: 360,
		LeaseRounds: 2, ReportTimeout: 2 * time.Second, Obs: ob,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForAgents(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	sum, err := c.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-agentDone; err != nil {
		t.Fatal(err)
	}
	if len(sum.Finished) != 1 {
		t.Fatalf("finished %d jobs, want 1", len(sum.Finished))
	}
	// Occupied time is the work (2.2 quanta, over three rounds) plus the
	// one resume the first round pays. Any double-count from the
	// duplicated or replayed deliveries would add a round's charge.
	if got, want := sum.UsageByUser["alice"], 2.2*360+resumeSecs; math.Abs(got-want) > 1e-6 {
		t.Errorf("usage %v, want %v (each round charged exactly once)", got, want)
	}
	// Duplicates of rounds 1 and 2 are drained (and dropped) at the
	// next round's start; the final round's duplicate arrives after
	// the run is over, so only two are observable.
	if n := ob.Value("gf_protocol_events_total", "dup_dropped"); n < 2 {
		t.Errorf("dup_dropped = %v, want one per drained duplicate delivery (>= 2)", n)
	}
	if n := ob.Value("gf_protocol_events_total", "late_report_dropped"); n != 1 {
		t.Errorf("late_report_dropped = %v, want exactly 1 (the cross-round replay)", n)
	}
	if n := ob.Value("gf_protocol_events_total", "late_report_applied"); n != 0 {
		t.Errorf("late_report_applied = %v, want 0 (the replayed round was already counted)", n)
	}
}

// fencePlan builds a minimal plan for the agent-side protocol tests:
// one endless job at rate 1 from checkpoint 0, so every plan produces a
// report, under a lease of 2 rounds.
func fencePlan(round, epoch, ack int) comm.RoundPlan {
	return comm.RoundPlan{
		Round: round, Epoch: epoch, Quantum: 360, Lease: 2, AckRound: ack,
		Jobs: []comm.JobAssignment{{
			JobID: 1, User: "u", Gang: 1, LocalGPUs: []int{0},
			TotalMB: 1e9, GangRate: 1, Shard: 1,
		}},
	}
}

// stepAgent builds a one-GPU agent on a hub endpoint nothing reads and
// returns its observer and step, which seals msg as the central's next
// envelope, takes it through the agent's step and fails the test if
// step sent anything.
func stepAgent(t *testing.T) (*obs.Observer, func(msg comm.Message) ([]comm.RoundReport, bool, error)) {
	t.Helper()
	hub := comm.NewHub()
	ctr := attach(t, hub, "central")
	a, err := NewAgent(attach(t, hub, "agent-0"), "central", gpu.K80, 1)
	if err != nil {
		t.Fatal(err)
	}
	ob := obs.New()
	a.SetObserver(ob)
	seq := uint64(0)
	return ob, func(msg comm.Message) ([]comm.RoundReport, bool, error) {
		t.Helper()
		seq++
		env, err := comm.Seal(comm.Envelope{From: "central", Seq: seq, Msg: msg})
		if err != nil {
			t.Fatal(err)
		}
		reps, exit, err := a.step(env)
		if len(ctr.Recv()) != 0 {
			t.Fatal("step sent an envelope")
		}
		return reps, exit, err
	}
}

// TestAgentStep takes a fresh agent through a sequence of envelopes and
// checks what the last one's step returns: the rounds of the reports to
// send, the newest report's progress, the protocol event it records,
// and whether the agent exits.
func TestAgentStep(t *testing.T) {
	for _, tc := range []struct {
		name   string
		msgs   []comm.Message
		rounds []int   // the rounds of the returned reports, oldest first
		done   float64 // the newest report's DoneMB
		event  string
		exit   bool
		err    bool
	}{
		{name: "older epoch fenced", msgs: []comm.Message{fencePlan(1, 2, 0), fencePlan(2, 1, 0)}, event: "fence_reject"},
		{name: "newer epoch resets", msgs: []comm.Message{fencePlan(1, 1, 0), fencePlan(2, 1, 0), fencePlan(1, 2, 0)}, rounds: []int{1}, done: 360},
		{name: "stale round dropped", msgs: []comm.Message{fencePlan(1, 1, 0), fencePlan(1, 1, 0)}, event: "stale_plan_dropped"},
		{name: "unacked backlog resent", msgs: []comm.Message{fencePlan(1, 1, 0), fencePlan(2, 1, 0)}, rounds: []int{1, 2}, done: 720},
		{name: "AckRound prunes", msgs: []comm.Message{fencePlan(1, 1, 0), fencePlan(2, 1, 1)}, rounds: []int{2}, done: 720},
		{name: "lease expiry parks at the checkpoint", msgs: []comm.Message{fencePlan(1, 1, 0), fencePlan(2, 1, 0), fencePlan(4, 1, 0)},
			rounds: []int{4}, done: 360, event: "lease_expired"},
		{name: "registration rejected", msgs: []comm.Message{comm.RegisterAck{Reason: "no"}}, exit: true, err: true},
		{name: "shutdown", msgs: []comm.Message{comm.Shutdown{}}, exit: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ob, step := stepAgent(t)
			var reps []comm.RoundReport
			var exit bool
			var err error
			for _, m := range tc.msgs {
				reps, exit, err = step(m)
			}
			var rounds []int
			for _, r := range reps {
				rounds = append(rounds, r.Round)
			}
			if !slices.Equal(rounds, tc.rounds) || exit != tc.exit || (err != nil) != tc.err {
				t.Fatalf("reports for rounds %v, exit %v, err %v; want rounds %v, exit %v", rounds, exit, err, tc.rounds, tc.exit)
			}
			if len(reps) > 0 && reps[len(reps)-1].Jobs[0].DoneMB != tc.done {
				t.Errorf("newest report's DoneMB = %v, want %v", reps[len(reps)-1].Jobs[0].DoneMB, tc.done)
			}
			if tc.event != "" && ob.Value("gf_protocol_events_total", tc.event) < 1 {
				t.Errorf("no %s event", tc.event)
			}
		})
	}
}

// TestAgentFencesStaleEpochPlan drives an agent's step as a hand-rolled
// central would: plans from an older epoch are rejected without
// execution, duplicate rounds within an epoch are dropped, and a newer
// epoch resets the agent's round horizon.
func TestAgentFencesStaleEpochPlan(t *testing.T) {
	ob, step := stepAgent(t)
	// wantReport checks that the first report step returns — the next
	// message Run would send — is the plan's own.
	wantReport := func(round, epoch int) {
		t.Helper()
		reps, _, _ := step(fencePlan(round, epoch, 0))
		if len(reps) == 0 || reps[0].Round != round || reps[0].Epoch != epoch {
			t.Fatalf("got %+v, want report for round %d epoch %d", reps, round, epoch)
		}
	}
	wantNone := func(round, epoch int) {
		t.Helper()
		if reps, _, _ := step(fencePlan(round, epoch, 0)); len(reps) != 0 {
			t.Fatalf("plan for round %d epoch %d answered with %+v", round, epoch, reps)
		}
	}

	wantReport(1, 2) // current incarnation
	wantNone(2, 1)   // stale epoch: a dead central's plan — fenced, no report
	wantReport(3, 2) // next live plan; its report must be the next message
	wantNone(3, 2)   // duplicated round within the epoch — dropped
	wantReport(1, 3) // new incarnation: round horizon resets, round 1 runs again

	if _, exit, err := step(comm.Shutdown{}); !exit || err != nil {
		t.Fatalf("Shutdown: exit %v, err %v", exit, err)
	}
	if n := ob.Value("gf_protocol_events_total", "fence_reject"); n != 1 {
		t.Errorf("fence_reject = %v, want 1", n)
	}
	if n := ob.Value("gf_protocol_events_total", "stale_plan_dropped"); n != 1 {
		t.Errorf("stale_plan_dropped = %v, want 1", n)
	}
}

// TestCentralFencesStaleEpochReport exercises the central half of the
// fence directly: reports from any epoch other than the central's own
// are rejected, epoch 0 (which no central stamps) included.
func TestCentralFencesStaleEpochReport(t *testing.T) {
	hub := comm.NewHub()
	ctr := attach(t, hub, "central")
	ob := obs.New()
	c, err := NewCentral(ctr, core.MustNewFairPolicy(core.FairConfig{}), CentralConfig{
		Specs: oneJobSpecs(t, "alice", 2), Obs: ob,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.epoch != 1 {
		t.Fatalf("fresh central epoch = %d, want 1", c.epoch)
	}
	if !c.fenced(comm.RoundReport{Agent: "a", Round: 1, Epoch: 0}) {
		t.Error("epoch-0 report not fenced")
	}
	if c.fenced(comm.RoundReport{Agent: "a", Round: 1, Epoch: 1}) {
		t.Error("current-epoch report fenced")
	}
	if !c.fenced(comm.RoundReport{Agent: "a", Round: 1, Epoch: 2}) {
		t.Error("foreign-epoch report not fenced")
	}
	c.epoch = 3 // as if restored from a snapshot written at epoch 2
	if !c.fenced(comm.RoundReport{Agent: "a", Round: 1, Epoch: 2}) {
		t.Error("pre-restore epoch report not fenced")
	}
	if n := ob.Value("gf_protocol_events_total", "fence_reject"); n != 3 {
		t.Errorf("fence_reject = %v, want 3", n)
	}
}

// TestLeaseExpiryParksAtCheckpoint: an agent whose reports are never
// acknowledged keeps training on local state for the lease duration,
// then parks — discarding local progress and resyncing to the plan's
// checkpoint — once the oldest unacknowledged round ages out. Every
// plan carries the same stale checkpoint (DoneMB 0) and acks nothing —
// the central never heard a report — and step returns what Run sends,
// in order.
func TestLeaseExpiryParksAtCheckpoint(t *testing.T) {
	ob, step := stepAgent(t)
	reports := func(round int) []comm.RoundReport {
		t.Helper()
		reps, _, _ := step(fencePlan(round, 1, 0))
		if len(reps) == 0 {
			t.Fatal("expected RoundReport")
		}
		return reps
	}

	r1 := reports(1)[0] // round 1, fresh start: one quantum of progress
	if r1.Jobs[0].DoneMB != 360 {
		t.Fatalf("round 1 DoneMB = %v, want 360 (quantum at rate 1)", r1.Jobs[0].DoneMB)
	}
	reps := reports(2)
	// The backlog resends round 1's report ahead of round 2's.
	if reps[0].Round != 1 || len(reps) != 2 {
		t.Fatalf("expected backlog resend of round 1, got round %d", reps[0].Round)
	}
	// Degraded mode: round 2 continued from local progress (720),
	// not the plan's stale checkpoint (0 + 360).
	if r2 := reps[1]; r2.Jobs[0].DoneMB != 720 {
		t.Errorf("round 2 DoneMB = %v, want 720 (local progress trusted under lease)", r2.Jobs[0].DoneMB)
	}
	// Round 5 with lease 2: the oldest unacked round (1) is <= 5-2, so
	// the lease is spent. The agent parks: local state and backlog are
	// dropped, and execution restarts from the plan's checkpoint.
	r5 := reports(5)[0]
	if r5.Round != 5 {
		t.Fatalf("expected round 5 report (backlog discarded on park), got round %d", r5.Round)
	}
	if r5.Jobs[0].DoneMB != r1.Jobs[0].DoneMB {
		t.Errorf("post-park DoneMB = %v, want %v (resynced to the plan checkpoint)",
			r5.Jobs[0].DoneMB, r1.Jobs[0].DoneMB)
	}
	if n := ob.Value("gf_protocol_events_total", "lease_expired"); n != 1 {
		t.Errorf("lease_expired = %v, want 1", n)
	}
	if _, exit, err := step(comm.Shutdown{}); !exit || err != nil {
		t.Fatalf("Shutdown: exit %v, err %v", exit, err)
	}
}

// TestStragglerCutoffReconcilesLateReport: an agent whose round-1
// report is lost on the way is cut off at the collect deadline (the
// round proceeds, charging a miss); round 2's plan acknowledges nothing,
// so the agent's backlog delivers the late report alongside round 2's —
// the central reconciles it idempotently before applying round 2, so
// every executed round is charged exactly once.
func TestStragglerCutoffReconcilesLateReport(t *testing.T) {
	hub := comm.NewHub()
	central := attach(t, hub, "central")
	a, err := NewAgent(&lostReports{Transport: attach(t, hub, "agent-0"), lost: 1}, "central", gpu.K80, 1)
	if err != nil {
		t.Fatal(err)
	}
	agentDone := make(chan error, 1)
	go func() { agentDone <- a.Run() }()

	ob := obs.New()
	c, err := NewCentral(central, core.MustNewFairPolicy(core.FairConfig{}), CentralConfig{
		Specs: oneJobSpecs(t, "alice", 2.2), Quantum: 360,
		LeaseRounds: 3, ReportTimeout: 150 * time.Millisecond, Obs: ob,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForAgents(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	sum, err := c.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-agentDone; err != nil {
		t.Fatal(err)
	}
	if len(sum.Finished) != 1 {
		t.Fatalf("finished %d jobs, want 1", len(sum.Finished))
	}
	// Rounds 1 (late), 2 and 3 each charged once: the withheld report
	// was reconciled, not lost and not double-counted, and the work it
	// carried was never redone (the agent trusted local progress). The
	// job pays two resumes: round 2 was planned before round 1's answer
	// was known, so the central took it for suspended.
	if got, want := sum.UsageByUser["alice"], 2.2*360+2*resumeSecs; math.Abs(got-want) > 1e-6 {
		t.Errorf("usage %v, want %v", got, want)
	}
	if n := ob.Value("gf_protocol_events_total", "report_timeout"); n != 1 {
		t.Errorf("report_timeout = %v, want 1 (the straggler cutoff)", n)
	}
	if n := ob.Value("gf_protocol_events_total", "late_report_applied"); n != 1 {
		t.Errorf("late_report_applied = %v, want 1", n)
	}
}

// planWire wraps the central's transport: it force-fails the first
// `fails` RoundPlan sends to one agent (registration acks and
// shutdowns pass through) and duplicates every successful delivery.
type planWire struct {
	comm.Transport
	mu     sync.Mutex
	failTo string
	fails  int
}

func (w *planWire) Send(to string, e comm.Envelope) error {
	if _, isPlan := e.Msg.(comm.RoundPlan); isPlan {
		w.mu.Lock()
		fail := to == w.failTo && w.fails > 0
		if fail {
			w.fails--
		}
		w.mu.Unlock()
		if fail {
			return fmt.Errorf("planWire: dropped plan to %s", to)
		}
	}
	if err := w.Transport.Send(to, e); err != nil {
		return err
	}
	return w.Transport.Send(to, e) // the wire duplicates everything it carries
}

// lostReports wraps an agent's transport: the first `lost` round
// reports it carries vanish on the way (the send succeeds, nothing
// arrives), so the central waits out its collect deadline for each.
type lostReports struct {
	comm.Transport
	lost int // the agent sends from its Run goroutine only
}

func (w *lostReports) Send(to string, e comm.Envelope) error {
	if _, isReport := e.Msg.(comm.RoundReport); isReport && w.lost > 0 {
		w.lost--
		return nil
	}
	return w.Transport.Send(to, e)
}

// startBehindPlanWire registers two one-GPU agents, a job of the given
// length each, with a central whose planWire fails the first `fails`
// plan sends to agent-1. The returned wait is for after the agents are
// shut down.
func startBehindPlanWire(t *testing.T, quanta float64, fails, lease int) (c *Central, hub *comm.Hub, ob *obs.Observer, wait func()) {
	t.Helper()
	return startPair(t, quanta, lease, fails, 0, 2*time.Second)
}

// startPair is startBehindPlanWire whose agent-1 also loses its first
// `lost` reports, against a collect deadline of timeout.
func startPair(t *testing.T, quanta float64, lease, fails, lost int, timeout time.Duration) (c *Central, hub *comm.Hub, ob *obs.Observer, wait func()) {
	t.Helper()
	hub = comm.NewHub()
	central := attach(t, hub, "central")
	ob = obs.New()
	var waits []chan error
	for i := 0; i < 2; i++ {
		tr := attach(t, hub, fmt.Sprintf("agent-%d", i))
		if i == 1 {
			tr = &lostReports{Transport: tr, lost: lost}
		}
		a, err := NewAgent(tr, "central", gpu.K80, 1)
		if err != nil {
			t.Fatal(err)
		}
		a.SetObserver(ob)
		done := make(chan error, 1)
		go func() { done <- a.Run() }()
		waits = append(waits, done)
	}

	specs := append(oneJobSpecs(t, "alice", quanta), oneJobSpecs(t, "bob", quanta)...)
	specs, err := workload.AssignIDs(specs)
	if err != nil {
		t.Fatal(err)
	}
	wire := &planWire{Transport: central, failTo: "agent-1", fails: fails}
	c, err = NewCentral(wire, core.MustNewFairPolicy(core.FairConfig{}), CentralConfig{
		Specs: specs, Quantum: 360,
		LeaseRounds: lease, ReportTimeout: timeout, Obs: ob,
		Retry: comm.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForAgents(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return c, hub, ob, func() {
		t.Helper()
		for _, w := range waits {
			if err := <-w; err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestZeroLeaseServerRecovers: under a lease of zero rounds, agent-1
// misses two reports in a row, so its server is down: it hosts no work
// and gets no plan. The probe every lease sends an unheard-from agent
// is what it answers, which heals the partition and puts its GPU back
// to work — one of the two jobs would otherwise wait behind the other
// for good. Two causes of the misses: plans the wire cannot deliver
// (each round's three attempts fail, twice), and reports lost on the
// way back that the collect deadline cuts off.
func TestZeroLeaseServerRecovers(t *testing.T) {
	for _, tc := range []struct {
		name        string
		fails, lost int
	}{
		{"undeliverable plans", 6, 0},
		{"collect deadline", 0, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, _, ob, wait := startPair(t, 1e6, 0, tc.fails, tc.lost, 200*time.Millisecond)
			// Rounds run as fast as agent-0 answers, so the answer to a
			// probe may land any number of rounds later: step until the
			// heal, then one round more, which places work on agent-1.
			log := c.eng.Result().Log
			for deadline := time.Now().Add(5 * time.Second); len(log.Filter(trace.KindPartitionHeal)) == 0; {
				if time.Now().After(deadline) {
					t.Errorf("agent-1 never healed (missed=%d)", c.agents[1].missed)
					break
				}
				if _, err := c.Steps(1); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := c.Steps(1); err != nil {
				t.Fatal(err)
			}
			busy := c.BusyAgents()
			c.ShutdownAgents()
			wait()
			for _, ev := range log.Filter(trace.KindPartitionHeal) {
				if ev.Detail != "agent=agent-1" {
					t.Errorf("partition heal %+v: only agent-1 was cut off", ev)
				}
			}
			if len(busy) != 2 {
				t.Errorf("busy agents after the heal %v, want both", busy)
			}
			if n := ob.Value("gf_protocol_events_total", "probe_sent"); n < 1 {
				t.Errorf("probe_sent = %v, want >= 1", n)
			}
		})
	}
}

// TestUndeliverablePlanImmediateMiss: when a plan exhausts its send
// retries the central charges the miss immediately — it does not
// burn the collect deadline waiting for a report that can never come
// — and the duplicated deliveries on the healthy links never
// double-apply anywhere.
func TestUndeliverablePlanImmediateMiss(t *testing.T) {
	// All three attempts of one round-1 plan fail: an immediate miss.
	c, _, ob, wait := startBehindPlanWire(t, 2.2, 3, 3)
	start := time.Now()
	sum, err := c.Run(10)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	wait()
	if len(sum.Finished) != 2 {
		t.Fatalf("finished %d jobs, want 2", len(sum.Finished))
	}
	// Both jobs are charged exactly their work and one resume; the
	// cut-off job just starts one round later. Duplicated plans and
	// reports changed nothing (dedup dropped them).
	for _, u := range []job.UserID{"alice", "bob"} {
		if got, want := sum.UsageByUser[u], 2.2*360+resumeSecs; math.Abs(got-want) > 1e-6 {
			t.Errorf("usage[%s] = %v, want %v", u, got, want)
		}
	}
	if n := ob.Value("gf_protocol_events_total", "plan_send_failed"); n != 1 {
		t.Errorf("plan_send_failed = %v, want 1", n)
	}
	if n := ob.Value("gf_protocol_events_total", "send_retry"); n < 2 {
		t.Errorf("send_retry = %v, want >= 2 (the failed plan's retries)", n)
	}
	// The miss was immediate: no collect deadline was burned waiting
	// for the unreachable agent (the deadline is 2 s per round; the
	// whole run must finish well under one such wait).
	if n := ob.Value("gf_protocol_events_total", "report_timeout"); n != 0 {
		t.Errorf("report_timeout = %v, want 0 (miss charged at send time)", n)
	}
	if elapsed > time.Second {
		t.Errorf("run took %v; an undeliverable plan must not wait out the collect deadline", elapsed)
	}
	if n := ob.Value("gf_protocol_events_total", "dup_dropped"); n == 0 {
		t.Error("dup_dropped = 0, want > 0 (every delivery was duplicated)")
	}
}

// TestPartitionLifecycleReachesTheTrace: the coordinator's partition
// events are occurrences of the engine's one stream, so they land in
// the run's event log. A report sealed by a dead central epoch is
// fenced; plans to agent-1 fail until its one-round lease is spent
// (three straight misses); then a probe gets through and its answer,
// whichever round it arrives in, heals the partition.
func TestPartitionLifecycleReachesTheTrace(t *testing.T) {
	c, hub, ob, wait := startBehindPlanWire(t, 1e6, 9, 1)
	ghost := attach(t, hub, "ghost")
	stale, err := comm.Seal(comm.Envelope{From: "ghost", Seq: 1,
		Msg: comm.RoundReport{Agent: "agent-0", Round: 1, Epoch: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if err := ghost.Send("central", stale); err != nil {
		t.Fatal(err)
	}
	log := c.eng.Result().Log
	for deadline := time.Now().Add(10 * time.Second); len(log.Filter(trace.KindPartitionHeal)) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("agent-1 never healed")
		}
		if _, err := c.Steps(1); err != nil {
			t.Fatal(err)
		}
	}
	c.ShutdownAgents()
	wait()
	for _, want := range []trace.Event{
		{Kind: trace.KindLeaseExpire, Detail: "agent=agent-1"},
		{Kind: trace.KindPartitionHeal, Detail: "agent=agent-1"},
		{Kind: trace.KindFenceReject, Detail: "agent=agent-0 round=1 epoch=7"},
	} {
		evs := log.Filter(want.Kind)
		if len(evs) != 1 || evs[0].Detail != want.Detail {
			t.Errorf("%s in the coordinator's log: %+v, want one with detail %q", want.Kind, evs, want.Detail)
		}
	}
	// One record, every sink: the same occurrences are on the counters
	// (which the agents share: a parked agent counts its own expiry).
	for _, ev := range []string{"lease_expired", "partition_heal", "fence_reject"} {
		if n := ob.Value("gf_protocol_events_total", ev); n < 1 {
			t.Errorf("gf_protocol_events_total{event=%q} = %v, want >= 1", ev, n)
		}
	}
}
