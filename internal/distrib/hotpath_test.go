package distrib

import (
	"fmt"
	"runtime"
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

// hubDeployment is the gfperf dist-hub shape in-package: a central and
// `agents` in-process 4-GPU agents (K80/P100/V100 in turn) on one hub,
// `users` users × `jobsPerUser` jobs far longer than any run here, all
// arrived at time zero, trading on, plans granting a lease of `lease`
// rounds. stop closes every endpoint.
func hubDeployment(tb testing.TB, agents, users, jobsPerUser, lease int) (c *Central, ran *ranGPUs, stop func()) {
	tb.Helper()
	return hubDeploymentWith(tb, agents, users, jobsPerUser, CentralConfig{LeaseRounds: lease})
}

// hubDeploymentWith is hubDeployment with the central configured by
// cfg, whose specs and quantum it sets.
func hubDeploymentWith(tb testing.TB, agents, users, jobsPerUser int, cfg CentralConfig) (c *Central, ran *ranGPUs, stop func()) {
	tb.Helper()
	names := zoo.Names()
	var us []workload.UserSpec
	for i := 0; i < users; i++ {
		us = append(us, workload.UserSpec{
			User: job.UserID(fmt.Sprintf("user%04d", i+1)), NumJobs: jobsPerUser, MeanK80Hours: 20000,
			Models: []string{names[i%len(names)], names[(i+3)%len(names)]},
		})
	}
	specs, err := workload.Generate(zoo, workload.Config{Seed: 42, Users: us, MaxK80Hours: 1e6})
	if err != nil {
		tb.Fatal(err)
	}
	hub := comm.NewHub()
	ctr := attach(tb, hub, "central")
	gens := make([]gpu.Generation, agents)
	for i := range gens {
		gens[i] = []gpu.Generation{gpu.K80, gpu.P100, gpu.V100}[i%3]
	}
	waits := startAgents(tb, hub, gens, 4)
	ran = &ranGPUs{Policy: core.MustNewFairPolicy(core.FairConfig{EnableTrading: true})}
	cfg.Specs, cfg.Quantum = specs, 360
	c, err = NewCentral(ctr, ran, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if err := c.WaitForAgents(agents, 30*time.Second); err != nil {
		tb.Fatal(err)
	}
	return c, ran, func() {
		c.ShutdownAgents()
		for _, w := range waits {
			if err := <-w; err != nil {
				tb.Errorf("agent exited with %v", err)
			}
		}
	}
}

// ranGPUs counts the GPUs the last round's executed jobs held.
type ranGPUs struct {
	core.Policy
	n int
}

func (p *ranGPUs) Executed(rep *core.ExecReport) {
	p.n = 0
	for _, info := range rep.Ran {
		p.n += info.Gang
	}
	p.Policy.Executed(rep)
}

// TestCentralSteadyStateAllocCeiling pins the dense-scratch rule
// (DESIGN.md §8) on the distributed round: 64 agents, 256 GPUs all
// busy, no faults, plans granting a lease of zero rounds and of four —
// one protocol, whose window has one slot or five. What a round may
// allocate is what it hands away — two payload arrays, and per agent
// one boxed plan, one boxed report and its job list, carved from a
// 64-entry block the agent replaces every 16 or more rounds — plus the
// policy's per-job decision: 145.1 mallocs a round at either lease,
// the same on every run (central and agents together: the count is
// process-wide). With a fresh job list per report it made 205.2. Both
// sides keep the window in slots reused in place, the agent its
// backlog and local progress in arrays kept across rounds, and the
// central no table keyed by job; the per-round maps the window
// replaced cost 852. The ceiling is the count plus a tenth.
//
// Agents=256 runs the same shape four times wider (256 agents, 1,024
// GPUs, four times the jobs) at a lease of zero rounds and bounds what
// each added agent costs a round, (n₂₅₆ − n₆₄)/192: 2.07, the two boxes
// and a sixteenth of a block. A fresh job list per report made it
// 3.00. The boxes go when the messages become pointers.
func TestCentralSteadyStateAllocCeiling(t *testing.T) {
	const ceiling = 160
	for _, lease := range []int{0, 4} {
		t.Run(fmt.Sprintf("LeaseRounds=%d", lease), func(t *testing.T) {
			perRound, kib := steadyStateAllocs(t, 64, 128, lease)
			t.Logf("steady-state distributed round, lease %d: %.1f mallocs, %.1f KiB", lease, perRound, kib)
			if perRound > ceiling {
				t.Errorf("steady-state distributed round makes %.0f mallocs, ceiling %d", perRound, ceiling)
			}
		})
	}
	t.Run("Agents=256", func(t *testing.T) {
		const perAgentCeiling = 2.25
		n64, _ := steadyStateAllocs(t, 64, 128, 0)
		n256, kib := steadyStateAllocs(t, 256, 512, 0)
		perAgent := (n256 - n64) / 192
		t.Logf("steady-state distributed round: %.1f mallocs at 64 agents, %.1f (%.1f KiB) at 256: %.2f per added agent",
			n64, n256, kib, perAgent)
		if perAgent > perAgentCeiling {
			t.Errorf("each added agent costs the steady round %.2f mallocs, ceiling %.2f", perAgent, perAgentCeiling)
		}
	})
}

// steadyStateAllocs builds hubDeployment's shape with `agents` agents,
// 4 users × jobsPerUser jobs and a lease of `lease` rounds, and returns
// a steady zero-fault round's mallocs and KiB allocated, central and
// agents together.
func steadyStateAllocs(t *testing.T, agents, jobsPerUser, lease int) (perRound, kib float64) {
	c, ran, stop := hubDeployment(t, agents, 4, jobsPerUser, lease)
	defer stop()
	// Scratch tables reach their size and the profiler has probed
	// every job within a few rounds.
	if _, err := c.Steps(12); err != nil {
		t.Fatal(err)
	}
	const rounds = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := c.Steps(rounds); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if ran.n != 4*agents || c.timeouts != 0 {
		t.Fatalf("%d of %d GPUs hold jobs, %d missed reports: not the zero-fault saturated round", ran.n, 4*agents, c.timeouts)
	}
	return float64(after.Mallocs-before.Mallocs) / rounds, float64(after.TotalAlloc-before.TotalAlloc) / rounds / 1024
}

// TestObservedCentralAllocCeiling pins the steady distributed round of
// TestCentralSteadyStateAllocCeiling's shape (lease of zero rounds)
// observed and traced as gfperf's obs-on dist-hub rep sets the central
// up — an observer with a "central" span tracer — so every plan carries
// a trace and every agent answers with its round's spans. With the
// observer's per-phase maps and RoundSpans grown by appends it made
// 342.9 mallocs a round on go1.24 (race detector on or off); with the
// phase table and RoundSpans sized by a count it made 274.8: one fewer
// per agent, four fewer at the central. With the reports' job lists
// carved from the agents' blocks it makes 214.4, the same saving per
// agent as the unobserved round's. The ceiling is that plus a tenth.
func TestObservedCentralAllocCeiling(t *testing.T) {
	o := obs.New()
	o.SetTracer(span.New("central", 0))
	c, ran, stop := hubDeploymentWith(t, 64, 4, 128, CentralConfig{Obs: o})
	defer stop()
	if _, err := c.Steps(12); err != nil {
		t.Fatal(err)
	}
	const rounds = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := c.Steps(rounds); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perRound := float64(after.Mallocs-before.Mallocs) / rounds

	if ran.n != 256 || c.timeouts != 0 {
		t.Fatalf("%d of 256 GPUs hold jobs, %d missed reports: not the zero-fault saturated round", ran.n, c.timeouts)
	}
	all := o.Tracer().Spans()
	round := int(all[len(all)-1].Trace) - 1
	if spans := o.Tracer().RoundSpans(round); len(spans) < 1+64*2 {
		t.Fatalf("round %d holds %d spans, want the central's and two from each of 64 agents", round, len(spans))
	}
	const ceiling = 236
	t.Logf("observed steady-state distributed round: %.1f mallocs", perRound)
	if perRound > ceiling {
		t.Errorf("observed steady-state distributed round makes %.0f mallocs, ceiling %d", perRound, ceiling)
	}
}

// BenchmarkDistHubRound is the gfperf dist-hub workload (256 agents ×
// 4 GPUs, 8 users × 256 long jobs, 120 rounds) as a `go test -bench`
// target for profiling.
func BenchmarkDistHubRound(b *testing.B) {
	const rounds = 120
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, _, stop := hubDeployment(b, 256, 8, 256, 0)
		b.StartTimer()
		if _, err := c.Steps(rounds); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		stop()
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N*rounds), "ms/round")
}
