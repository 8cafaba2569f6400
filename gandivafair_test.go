package gandivafair

// Public-API smoke tests: everything the examples and downstream
// users rely on, exercised only through the root package surface.

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
	"time"
)

func TestPublicQuickstartFlow(t *testing.T) {
	cluster, err := NewCluster(
		ServerSpec{Gen: K80, Servers: 1, GPUsPerSrv: 4},
		ServerSpec{Gen: V100, Servers: 1, GPUsPerSrv: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	zoo := DefaultZoo()
	var specs []JobSpec
	specs = append(specs, BatchJobs("alice", zoo.MustGet("vae"), 6, 1, 3.0)...)
	specs = append(specs, BatchJobs("bob", zoo.MustGet("resnet50"), 2, 4, 3.0)...)
	specs, err = AssignIDs(specs)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewScheduler(SchedulerConfig{EnableTrading: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(Config{Cluster: cluster, Specs: specs, Seed: 1}, sched, Time(2*Day))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Finished) != 8 || res.Unfinished != 0 {
		t.Fatalf("finished %d, unfinished %d", len(res.Finished), res.Unfinished)
	}
	if res.Policy != "gandiva-fair" {
		t.Errorf("policy = %q", res.Policy)
	}
}

func TestPublicBaselinesRun(t *testing.T) {
	cluster, _ := NewCluster(ServerSpec{Gen: K80, Servers: 2, GPUsPerSrv: 4})
	zoo := DefaultZoo()
	specs, _ := AssignIDs(BatchJobs("u", zoo.MustGet("gru"), 6, 1, 1.0))
	for _, p := range []Policy{
		NewTiresias(),
		NewGandivaRR(),
		NewStaticQuota([]UserID{"u"}),
		NewFIFO(),
	} {
		res, err := Simulate(Config{Cluster: cluster, Specs: specs, Seed: 2}, p, Time(Day))
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if len(res.Finished) != 6 {
			t.Errorf("%s finished %d of 6", p.Name(), len(res.Finished))
		}
	}
}

func TestPublicTraceRoundTrip(t *testing.T) {
	zoo := DefaultZoo()
	specs, err := GenerateTrace(zoo, TraceCfg{
		Seed:  3,
		Users: []UserSpec{{User: "a", NumJobs: 25, ArrivalRatePerHour: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTraceCSV(&buf, specs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTraceCSV(&buf, zoo)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(specs) {
		t.Fatalf("round trip %d → %d", len(specs), len(back))
	}
}

func TestPublicGangDist(t *testing.T) {
	var sum float64
	for _, gw := range PhillyGangDist() {
		sum += gw.Weight
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("gang weights sum to %v", sum)
	}
}

func TestPublicDistributedHub(t *testing.T) {
	hub := NewHub()
	central, err := hub.Attach("central")
	if err != nil {
		t.Fatal(err)
	}
	agentTr, err := hub.Attach("agent-0")
	if err != nil {
		t.Fatal(err)
	}
	agent, err := NewAgent(agentTr, "central", K80, 4)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- agent.Run() }()

	zoo := DefaultZoo()
	specs, _ := AssignIDs(BatchJobs("u", zoo.MustGet("squeezenet"), 2, 1, 0.2))
	coord, err := NewCentral(central, MustNewScheduler(SchedulerConfig{}),
		CentralConfig{Specs: specs, Quantum: 360})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.WaitForAgents(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	sum, err := coord.Run(30)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Finished) != 2 {
		t.Fatalf("distributed run finished %d of 2", len(sum.Finished))
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestPublicCustomZoo(t *testing.T) {
	var p Perf
	p.Model = "custom"
	p.ScalingEff = 0.9
	p.CheckpointMB = 10
	p.RatePerGPU[K80] = 2
	p.RatePerGPU[V100] = 6
	zoo, err := NewZoo(&p)
	if err != nil {
		t.Fatal(err)
	}
	if got := zoo.MustGet("custom").Speedup(V100, K80); math.Abs(got-3) > 1e-12 {
		t.Errorf("custom speedup = %v", got)
	}
}

func TestPublicSweepAndAudit(t *testing.T) {
	if _, err := ParseAuditMode("bogus"); err == nil {
		t.Error("bogus audit mode accepted")
	}
	mode, err := ParseAuditMode("count")
	if err != nil || mode != AuditCount {
		t.Fatalf("ParseAuditMode(count) = %v, %v", mode, err)
	}

	grid, err := LoadSweepGrid(strings.NewReader(`{
		"scenario": {
			"cluster": [{"gen": "K80", "servers": 1, "gpus_per_server": 4}],
			"users": [{"name": "u", "jobs": 4, "mean_k80_hours": 1,
			           "gangs": [{"gang": 1, "weight": 1}]}],
			"horizon_hours": 8
		},
		"policies": ["gandiva-fair", "fifo"],
		"seeds": [1, 2]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	points, err := grid.Points(AuditStrict)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d, want 4", len(points))
	}
	results := Sweep(context.Background(), points, SweepOptions{})
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Label, r.Err)
		}
		if r.Result.Audit == nil || !r.Result.Audit.Clean() {
			t.Errorf("%s: audit not clean", r.Label)
		}
	}
	sum := SummarizeSweep(results)
	if len(sum.Groups) != 2 {
		t.Fatalf("summary groups = %d, want 2", len(sum.Groups))
	}
	var b bytes.Buffer
	if err := sum.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "fifo") {
		t.Errorf("summary table missing fifo row:\n%s", b.String())
	}
}
