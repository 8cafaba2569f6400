package distrib

import (
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

// TestCentralObservability runs an instrumented end-to-end hub
// deployment and checks the observer saw the protocol: rounds,
// per-phase timings including dispatch/collect/apply, plan/report
// counters, explained placements, and share gauges in /metrics form.
func TestCentralObservability(t *testing.T) {
	hub := comm.NewHub()
	central := attach(t, hub, "central")
	waits := startAgents(t, hub, []gpu.Generation{gpu.K80, gpu.V100}, 4)

	var specs []job.Spec
	specs = append(specs, workload.BatchJobs("alice", zoo.MustGet("lstm"), 4, 1, 0.5)...)
	specs = append(specs, workload.BatchJobs("bob", zoo.MustGet("gru"), 4, 1, 0.5)...)
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
	sum, err := c.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range waits {
		<-w
	}

	snap := o.Snapshot()
	if int(snap.Rounds) != sum.Rounds {
		t.Errorf("observer rounds %v != summary rounds %d", snap.Rounds, sum.Rounds)
	}
	for _, p := range []obs.Phase{obs.PhaseDecide, obs.PhasePlacement,
		obs.PhaseDispatch, obs.PhaseCollect, obs.PhaseApply} {
		if snap.PhaseTotals[string(p)] <= 0 {
			t.Errorf("phase %s saw no time: %v", p, snap.PhaseTotals)
		}
	}
	if len(snap.Decisions) == 0 {
		t.Error("no placements explained")
	}
	for _, d := range snap.Decisions {
		if d.User == "" || d.Gen == "" || len(d.Devices) == 0 {
			t.Errorf("incomplete decision: %+v", d)
		}
	}

	var sb strings.Builder
	if err := o.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"gf_protocol_events_total{event=\"plan_sent\"}",
		"gf_protocol_events_total{event=\"report_received\"}",
		"gf_protocol_events_total{event=\"register_received\"}",
		"gf_user_usage_fraction{user=\"alice\"}",
		"gf_user_fair_fraction{user=\"bob\"}",
		"gf_round_phase_seconds_bucket",
		"gf_jobs_finished_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestAgentObservability checks the agent-side protocol counters.
func TestAgentObservability(t *testing.T) {
	hub := comm.NewHub()
	central := attach(t, hub, "central")
	tr := attach(t, hub, "agent-0")
	a, err := NewAgent(tr, "central", gpu.K80, 4)
	if err != nil {
		t.Fatal(err)
	}
	ao := obs.New()
	a.SetObserver(ao)
	done := make(chan error, 1)
	go func() { done <- a.Run() }()

	specs, _ := workload.AssignIDs(workload.BatchJobs("u", zoo.MustGet("lstm"), 2, 1, 0.5))
	c, err := NewCentral(central, core.MustNewFairPolicy(core.FairConfig{}), CentralConfig{
		Specs: specs, Quantum: 360,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForAgents(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(50); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := ao.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"gf_protocol_events_total{event=\"register_sent\"} 1",
		"gf_protocol_events_total{event=\"plan_received\"}",
		"gf_protocol_events_total{event=\"report_sent\"}",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("agent metrics missing %q", want)
		}
	}
}
