package distrib

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/workload"
)

var zoo = workload.DefaultZoo()

// attach attaches name to the hub, failing the test if it cannot.
func attach(t testing.TB, hub *comm.Hub, name string) comm.Transport {
	t.Helper()
	tr, err := hub.Attach(name)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// startAgents launches n agents of the given generations on the hub.
func startAgents(t testing.TB, hub *comm.Hub, gens []gpu.Generation, gpus int) []chan error {
	t.Helper()
	var waits []chan error
	for i, g := range gens {
		a, err := NewAgent(attach(t, hub, fmt.Sprintf("agent-%d", i)), "central", g, gpus)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- a.Run() }()
		waits = append(waits, done)
	}
	return waits
}

func TestDistributedEndToEndHub(t *testing.T) {
	hub := comm.NewHub()
	central := attach(t, hub, "central")
	waits := startAgents(t, hub, []gpu.Generation{gpu.K80, gpu.K80}, 4)

	var specs []job.Spec
	specs = append(specs, workload.BatchJobs("alice", zoo.MustGet("lstm"), 4, 1, 0.5)...)
	specs = append(specs, workload.BatchJobs("bob", zoo.MustGet("gru"), 4, 1, 0.5)...)
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
	sum, err := c.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Finished) != 8 || sum.Unfinished != 0 {
		t.Fatalf("finished %d, unfinished %d; want 8/0", len(sum.Finished), sum.Unfinished)
	}
	// 8 GPUs, 8 half-hour jobs: everything runs concurrently and
	// completes in ~6 rounds of 360 s.
	for _, j := range sum.Finished {
		if jct := j.JCT(); jct < 1700 || jct > 2600 {
			t.Errorf("job %d JCT %v, want ≈1800s (+overheads, round granularity)", j.ID, jct)
		}
	}
	// Equal users: equal usage.
	if a, b := sum.UsageByUser["alice"], sum.UsageByUser["bob"]; math.Abs(a-b) > 0.05*(a+b) {
		t.Errorf("usage alice=%v bob=%v, want ≈equal", a, b)
	}
	for _, w := range waits {
		select {
		case err := <-w:
			if err != nil {
				t.Errorf("agent exited with %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("agent did not shut down")
		}
	}
}

func TestDistributedContention(t *testing.T) {
	// 1 agent × 4 GPUs, 2 users × 4 long jobs: shares must be fair
	// even though only half the jobs fit at once.
	hub := comm.NewHub()
	central, _ := hub.Attach("central")
	startAgents(t, hub, []gpu.Generation{gpu.K80}, 4)

	var specs []job.Spec
	specs = append(specs, workload.BatchJobs("alice", zoo.MustGet("lstm"), 4, 1, 100)...)
	specs = append(specs, workload.BatchJobs("bob", zoo.MustGet("gru"), 4, 1, 100)...)
	specs, _ = workload.AssignIDs(specs)

	c, err := NewCentral(central, core.MustNewFairPolicy(core.FairConfig{}), CentralConfig{Specs: specs})
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
	a, b := sum.UsageByUser["alice"], sum.UsageByUser["bob"]
	if a == 0 || b == 0 || math.Abs(a-b) > 0.1*(a+b) {
		t.Fatalf("contended shares alice=%v bob=%v, want ≈equal", a, b)
	}
}

func TestDistributedOverTCP(t *testing.T) {
	srv, err := comm.ListenTCP("central", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	agentDone := make(chan error, 2)
	for i := 0; i < 2; i++ {
		cli, err := comm.DialTCP(fmt.Sprintf("agent-%d", i), srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		gen := gpu.K80
		if i == 1 {
			gen = gpu.V100
		}
		a, err := NewAgent(cli, "central", gen, 2)
		if err != nil {
			t.Fatal(err)
		}
		go func() { agentDone <- a.Run() }()
	}

	specs := workload.BatchJobs("alice", zoo.MustGet("resnet50"), 2, 2, 0.3)
	specs, _ = workload.AssignIDs(specs)
	c, err := NewCentral(srv, core.MustNewFairPolicy(core.FairConfig{EnableTrading: true}),
		CentralConfig{Specs: specs, Quantum: 360})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForAgents(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	sum, err := c.Run(50)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Finished) != 2 {
		t.Fatalf("finished %d of 2 over TCP", len(sum.Finished))
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-agentDone:
			if err != nil {
				t.Errorf("agent error: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("agent hung")
		}
	}
}

func TestCentralValidation(t *testing.T) {
	hub := comm.NewHub()
	tr, _ := hub.Attach("central")
	pol := core.MustNewFairPolicy(core.FairConfig{})
	if _, err := NewCentral(nil, pol, CentralConfig{}); err == nil {
		t.Error("nil transport accepted")
	}
	if _, err := NewCentral(tr, nil, CentralConfig{}); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := NewCentral(tr, pol, CentralConfig{}); err == nil {
		t.Error("no jobs accepted")
	}
	specs := workload.BatchJobs("u", zoo.MustGet("vae"), 1, 1, 1)
	specs, _ = workload.AssignIDs(specs)
	c, err := NewCentral(tr, pol, CentralConfig{Specs: specs})
	if err != nil {
		t.Fatal(err)
	}
	// Run before WaitForAgents must fail.
	if _, err := c.Run(1); err == nil {
		t.Error("Run without agents accepted")
	}
	// Registration timeout.
	if err := c.WaitForAgents(1, 50*time.Millisecond); err == nil {
		t.Error("WaitForAgents did not time out")
	}
}

func TestAgentValidation(t *testing.T) {
	hub := comm.NewHub()
	tr, _ := hub.Attach("a")
	if _, err := NewAgent(nil, "c", gpu.K80, 4); err == nil {
		t.Error("nil transport accepted")
	}
	if _, err := NewAgent(tr, "c", gpu.Generation(99), 4); err == nil {
		t.Error("bad generation accepted")
	}
	if _, err := NewAgent(tr, "c", gpu.K80, 0); err == nil {
		t.Error("zero GPUs accepted")
	}
}

// blackHoleAgent registers like a real agent — sealed and sequenced,
// through a Retrier — but never answers round plans: a hung or
// partitioned server.
func blackHoleAgent(t *testing.T, hub *comm.Hub, name string, gen gpu.Generation, gpus int) {
	t.Helper()
	tr := attach(t, hub, name)
	if err := comm.NewRetrier(comm.RetryPolicy{}).Send(tr, "central", comm.Envelope{From: name, Msg: comm.Register{
		Agent: name, Gen: int(gen), GPUs: gpus,
	}}); err != nil {
		t.Fatal(err)
	}
	go func() {
		for range tr.Recv() { // swallow everything, reply to nothing
		}
	}()
}

func TestSilentAgentTolerated(t *testing.T) {
	hub := comm.NewHub()
	central, _ := hub.Attach("central")
	startAgents(t, hub, []gpu.Generation{gpu.K80}, 4) // agent-0, healthy
	blackHoleAgent(t, hub, "agent-z", gpu.K80, 4)     // never reports

	// 6 one-GPU jobs across 8 GPUs: placement spills at least two onto
	// the black hole's server.
	specs := workload.BatchJobs("u", zoo.MustGet("lstm"), 6, 1, 0.3)
	specs, _ = workload.AssignIDs(specs)
	c, err := NewCentral(central, core.MustNewFairPolicy(core.FairConfig{}), CentralConfig{
		Specs:         specs,
		Quantum:       360,
		ReportTimeout: 200 * time.Millisecond,
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
	// Failure detection marks the silent agent down after two missed
	// reports; its jobs migrate to the healthy server and all finish.
	if len(sum.Finished) != 6 {
		t.Fatalf("finished %d of 6 with a silent agent present", len(sum.Finished))
	}
	if sum.MissedReports == 0 {
		t.Error("silent agent produced no missed reports?")
	}
}

func TestTimeoutBudgetExhausted(t *testing.T) {
	hub := comm.NewHub()
	central, _ := hub.Attach("central")
	blackHoleAgent(t, hub, "agent-z", gpu.K80, 4)

	specs := workload.BatchJobs("u", zoo.MustGet("lstm"), 2, 1, 10)
	specs, _ = workload.AssignIDs(specs)
	// Budget of 1: the second consecutive miss (which happens before
	// failure detection stops planning onto the agent) exceeds it.
	c, err := NewCentral(central, core.MustNewFairPolicy(core.FairConfig{}), CentralConfig{
		Specs:            specs,
		ReportTimeout:    50 * time.Millisecond,
		MaxAgentTimeouts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForAgents(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(100); err == nil {
		t.Fatal("run did not abort after exhausting the timeout budget")
	}
}

func TestAgentExecuteSemantics(t *testing.T) {
	hub := comm.NewHub()
	tr, _ := hub.Attach("agent")
	a, _ := NewAgent(tr, "central", gpu.K80, 4)
	plan := comm.RoundPlan{Round: 1, Quantum: 100, Jobs: []comm.JobAssignment{
		{JobID: 1, DoneMB: 0, TotalMB: 1000, GangRate: 5, Overhead: 20},  // 80s × 5 = 400 mb
		{JobID: 2, DoneMB: 990, TotalMB: 1000, GangRate: 5, Overhead: 0}, // finishes in 2 s
		{JobID: 3, DoneMB: 0, TotalMB: 1000, GangRate: 5, Overhead: 150}, // overhead eats the round
	}}
	rep := a.execute(plan)
	if len(rep.Jobs) != 3 {
		t.Fatalf("%d progress entries", len(rep.Jobs))
	}
	if p := rep.Jobs[0]; math.Abs(p.DoneMB-400) > 1e-9 || p.Finished {
		t.Errorf("job 1 progress %+v", p)
	}
	if p := rep.Jobs[1]; !p.Finished || p.DoneMB != 1000 || math.Abs(p.UsedSecs-2) > 1e-9 {
		t.Errorf("job 2 progress %+v", p)
	}
	if p := rep.Jobs[2]; p.DoneMB != 0 || p.UsedSecs != 0 {
		t.Errorf("job 3 progress %+v", p)
	}
}

// TestCentralPlans builds one round's plans on four registered 2-GPU
// agents, with nothing on the wire: a 2-gang across agent-0 and agent-1,
// a whole job on agent-1, and no shard on agent-2, unheard-from, or on
// agent-3. Only agent-2 is probed.
func TestCentralPlans(t *testing.T) {
	hub := comm.NewHub()
	o := obs.New()
	o.SetTracer(span.New("central", 0))
	o.Tracer().BeginRound(5, 0)
	specs, _ := workload.AssignIDs(append(workload.BatchJobs("alice", zoo.MustGet("lstm"), 1, 2, 1),
		workload.BatchJobs("bob", zoo.MustGet("gru"), 1, 1, 1)...))
	c, err := NewCentral(attach(t, hub, "central"), core.MustNewFairPolicy(core.FairConfig{}), CentralConfig{
		Specs: specs, Quantum: 360, LeaseRounds: 2, Obs: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	var eps []comm.Transport
	for i := 0; i < 4; i++ {
		eps = append(eps, attach(t, hub, fmt.Sprintf("agent-%d", i)))
		c.register(comm.Register{Agent: eps[i].Name(), Gen: int(gpu.K80), GPUs: 2})
	}
	if err := c.buildEngine(nil); err != nil {
		t.Fatal(err)
	}
	gang, whole := job.MustNew(specs[0]), job.MustNew(specs[1])
	gang.ApplyReport(1000, gpu.K80, 10, false, 0)
	c.agents[0].acked = 4
	c.setMissed(1, 1) // unheard-from, but it hosts a shard: no probe
	c.setMissed(2, 1)
	c.plans(5, []core.Quantum{
		{Job: gang, Devs: []gpu.DeviceID{1, 2}, Gen: gpu.K80, Avail: 300},
		{Job: whole, Devs: []gpu.DeviceID{3}, Gen: gpu.K80, Avail: 360},
	})

	for i := range c.agents {
		a, work := &c.agents[i], i < 2
		if p := a.plan; p.Round != 5 || p.Epoch != 1 || p.Lease != 2 || p.Quantum != 360 || p.AckRound != []int{4, 0, 0, 0}[i] ||
			(p.Trace != 0) != work || (p.Span != 0) != work || (len(p.Jobs) > 0) != work || a.probe != (i == 2) {
			t.Errorf("agent-%d: probe %v, plan %+v", i, a.probe, p)
		}
		if s := a.at(5); (s.round == 5) != work || len(s.planned) != len(a.plan.Jobs) {
			t.Errorf("agent-%d: window slot of round %d with %d entries", i, s.round, len(s.planned))
		}
		if len(eps[i].Recv()) != 0 {
			t.Errorf("plans sent agent-%d an envelope", i)
		}
	}
	for k, want := range []struct {
		local         int
		shard, doneMB float64
		of            *job.Job
		overhead      float64
	}{{1, 0.5, 1000, gang, 60}, {0, 0.5, 1000, gang, 60}, {1, 1, 0, whole, 0}} {
		g := append(c.agents[0].plan.Jobs, c.agents[1].plan.Jobs...)[k]
		if !slices.Equal(g.LocalGPUs, []int{want.local}) || g.Gang != 1 || g.Shard != want.shard || g.DoneMB != want.doneMB ||
			g.JobID != int64(want.of.ID) || g.GangRate != want.of.GangRate(gpu.K80) || g.Overhead != want.overhead {
			t.Errorf("assignment %d = %+v, want local GPU %d, shard %v, DoneMB %v, the whole gang's rate, overhead %v",
				k, g, want.local, want.shard, want.doneMB, want.overhead)
		}
	}
}
