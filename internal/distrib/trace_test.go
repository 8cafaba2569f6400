package distrib

import (
	"bytes"
	"encoding/json"
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

// TestDistributedTraceIsConnected runs an instrumented hub deployment
// and verifies the tentpole trace property: one logical round forms a
// single trace spanning the central process and every agent — agent
// spans carry the round's trace ID and parent under the central round
// root — and the whole thing renders as valid Chrome trace JSON with
// one process row per endpoint.
func TestDistributedTraceIsConnected(t *testing.T) {
	hub := comm.NewHub()
	central := attach(t, hub, "central")
	waits := startAgents(t, hub, []gpu.Generation{gpu.K80, gpu.K80}, 4)

	var specs []job.Spec
	specs = append(specs, workload.BatchJobs("alice", zoo.MustGet("lstm"), 4, 1, 0.5)...)
	specs = append(specs, workload.BatchJobs("bob", zoo.MustGet("gru"), 4, 1, 0.5)...)
	specs, _ = workload.AssignIDs(specs)

	o := obs.New()
	tr := span.New("central", 0)
	o.SetTracer(tr)
	c, err := NewCentral(central, core.MustNewFairPolicy(core.FairConfig{}), CentralConfig{
		Specs: specs, Quantum: 360, Obs: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForAgents(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(100); err != nil {
		t.Fatal(err)
	}
	for _, w := range waits {
		<-w
	}

	// Pick round 1 (the first scheduling round) and dissect its trace.
	spans := tr.RoundSpans(1)
	if len(spans) == 0 {
		t.Fatal("no spans for round 1")
	}
	var root span.Span
	procs := map[string]int{}
	for _, s := range spans {
		procs[s.Proc]++
		if s.Name == "round" && s.Proc == "central" {
			root = s
		}
		if s.Trace != 2 { // trace ID = round + 1
			t.Fatalf("span %s/%s trace = %d, want 2", s.Proc, s.Name, s.Trace)
		}
	}
	if root.ID == 0 {
		t.Fatal("central round root missing")
	}
	if procs["agent-0"] == 0 || procs["agent-1"] == 0 {
		t.Fatalf("agent spans missing from central trace: %v", procs)
	}

	// Every agent round root parents under the central round root, and
	// agent execute spans parent under their agent root — one
	// connected tree across three processes.
	byID := map[span.ID]span.Span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	agentRoots := 0
	for _, s := range spans {
		switch {
		case s.Name == "agent-round":
			agentRoots++
			if s.Parent != root.ID {
				t.Errorf("agent root %s parent = %#x, want central root %#x", s.Proc, s.Parent, root.ID)
			}
		case s.Proc != "central":
			p, ok := byID[s.Parent]
			if !ok || p.Name != "agent-round" || p.Proc != s.Proc {
				t.Errorf("agent span %s/%s not parented under its agent root", s.Proc, s.Name)
			}
		}
	}
	if agentRoots != 2 {
		t.Errorf("agent roots = %d, want 2", agentRoots)
	}

	// Central phases are in the same trace.
	wantPhases := map[string]bool{"dispatch": false, "collect": false, "apply": false, "decide": false}
	for _, s := range spans {
		if s.Proc == "central" {
			if _, ok := wantPhases[s.Name]; ok {
				wantPhases[s.Name] = true
			}
		}
	}
	for ph, seen := range wantPhases {
		if !seen {
			t.Errorf("central phase span %q missing from trace", ph)
		}
	}

	// The Perfetto export is valid JSON with one process row per
	// endpoint and flow arrows for the cross-process links.
	var buf bytes.Buffer
	if err := span.WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace not parseable: %v", err)
	}
	metaNames := map[string]bool{}
	flows := 0
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "M" {
			if args, ok := ev["args"].(map[string]any); ok {
				metaNames[args["name"].(string)] = true
			}
		}
		if ev["ph"] == "s" {
			flows++
		}
	}
	for _, proc := range []string{"central", "agent-0", "agent-1"} {
		if !metaNames[proc] {
			t.Errorf("process row %q missing from chrome trace", proc)
		}
	}
	if flows != 2 {
		t.Errorf("cross-process flow arrows = %d, want 2", flows)
	}
}

// TestUntracedPlansCarryNoSpans pins the wire behavior with tracing
// off: plans ship a zero trace context and reports stay span-free, so
// the protocol is byte-compatible with pre-tracing builds.
func TestUntracedPlansCarryNoSpans(t *testing.T) {
	tr, err := comm.NewHub().Attach("agent-x")
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAgent(tr, "central", gpu.K80, 4)
	if err != nil {
		t.Fatal(err)
	}
	rep := a.execute(comm.RoundPlan{Round: 3, Quantum: 360, Jobs: []comm.JobAssignment{
		{JobID: 1, User: "u", Model: "lstm", Gang: 1, LocalGPUs: []int{0}, TotalMB: 100, GangRate: 1},
	}})
	if rep.Spans != nil {
		t.Fatalf("untraced report carries spans: %+v", rep.Spans)
	}
	if a.tracer != nil {
		t.Fatal("untraced plan created a tracer")
	}
}
