package span

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestIDsAreProcessPrefixed(t *testing.T) {
	a := New("central", 16)
	b := New("agent-1", 16)
	idA := a.BeginRound(0, 0)
	idB := b.BeginRound(0, 0)
	if idA == 0 || idB == 0 {
		t.Fatal("zero span ID")
	}
	if uint64(idA)>>32 == uint64(idB)>>32 {
		t.Fatalf("distinct processes share an ID prefix: %#x vs %#x", idA, idB)
	}
	if uint64(idA)&0xffffffff != 1 {
		t.Fatalf("first span sequence = %d, want 1", uint64(idA)&0xffffffff)
	}
}

func TestRoundTraceStructure(t *testing.T) {
	tr := New("sim", 64)
	root := tr.BeginRound(3, 1080)
	s1 := tr.Start("waterfill")
	tr.End(s1)
	s2 := tr.Start("placement")
	tr.End(s2)
	tr.EndRound()

	spans := tr.RoundSpans(3)
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
		if s.Trace != 4 {
			t.Errorf("span %s trace = %d, want 4", s.Name, s.Trace)
		}
		if s.Round != 3 || s.SimAt != 1080 {
			t.Errorf("span %s round/simAt = %d/%v", s.Name, s.Round, s.SimAt)
		}
		if s.DurNs < 0 {
			t.Errorf("span %s left open", s.Name)
		}
	}
	if byName["round"].ID != root || byName["round"].Parent != 0 {
		t.Errorf("root span malformed: %+v", byName["round"])
	}
	if byName["waterfill"].Parent != root || byName["placement"].Parent != root {
		t.Error("phase spans not parented to root")
	}
}

func TestRingEviction(t *testing.T) {
	tr := New("sim", 4)
	for r := 0; r < 6; r++ {
		tr.BeginRound(r, 0)
		tr.EndRound()
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d, want 4", len(spans))
	}
	if spans[0].Round != 2 || spans[3].Round != 5 {
		t.Fatalf("ring not oldest-first: rounds %d..%d", spans[0].Round, spans[3].Round)
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped())
	}
}

func TestEndEvictedSpanIsNoop(t *testing.T) {
	tr := New("sim", 2)
	old := tr.BeginRound(0, 0)
	// Push enough spans to evict the still-open root.
	s1 := tr.Start("a")
	s2 := tr.Start("b")
	tr.End(s1)
	tr.End(s2)
	tr.End(old) // must not corrupt an unrelated slot
	for _, s := range tr.Spans() {
		if s.Name != "a" && s.Name != "b" {
			t.Fatalf("unexpected span %q", s.Name)
		}
	}
}

func TestInjectAndRemote(t *testing.T) {
	central := New("central", 64)
	root := central.BeginRound(7, 2520)

	agent := New("agent-0", 64)
	agent.BeginRemote(central.Trace(), 7, 2520, "agent-round", root)
	ex := agent.Start("execute")
	agent.End(ex)
	agent.EndRound()

	central.Inject(agent.Spans())
	central.EndRound()

	spans := central.RoundSpans(7)
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	var remote *Span
	for i := range spans {
		if spans[i].Name == "agent-round" {
			remote = &spans[i]
		}
	}
	if remote == nil {
		t.Fatal("agent span missing after Inject")
	}
	if remote.Parent != root {
		t.Fatalf("remote parent = %#x, want %#x", remote.Parent, root)
	}
	if remote.Proc != "agent-0" {
		t.Fatalf("remote proc = %q", remote.Proc)
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if id := tr.BeginRound(0, 0); id != 0 {
		t.Fatal("nil tracer returned nonzero ID")
	}
	tr.Start("x")
	tr.BeginRemote(1, 0, 0, "z", 0)
	tr.End(1)
	tr.EndRound()
	tr.Inject([]Span{{}})
	if tr.Spans() != nil || tr.Root() != 0 || tr.Trace() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer leaked state")
	}
}

func TestWriteChromeTrace(t *testing.T) {
	central := New("central", 64)
	root := central.BeginRound(0, 0)
	agent := New("agent-0", 64)
	agent.BeginRemote(central.Trace(), 0, 0, "agent-round", root)
	agent.EndRound()
	central.Inject(agent.Spans())
	central.EndRound()

	var buf bytes.Buffer
	if err := central.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid chrome trace JSON: %v", err)
	}
	var metas, complete, flowS, flowF int
	pids := map[float64]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "M":
			metas++
		case "X":
			complete++
			pids[ev["pid"].(float64)] = true
		case "s":
			flowS++
		case "f":
			flowF++
		}
	}
	if metas != 2 {
		t.Errorf("process metadata events = %d, want 2", metas)
	}
	if complete != 2 {
		t.Errorf("complete events = %d, want 2", complete)
	}
	if len(pids) != 2 {
		t.Errorf("distinct pids = %d, want 2", len(pids))
	}
	if flowS != 1 || flowF != 1 {
		t.Errorf("flow events s=%d f=%d, want 1/1 (cross-process link)", flowS, flowF)
	}
}

func TestConcurrentUse(t *testing.T) {
	tr := New("sim", 128)
	tr.BeginRound(0, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := tr.Start("work")
				tr.End(id)
				tr.Spans()
				tr.RoundSpans(0)
			}
		}()
	}
	wg.Wait()
	tr.EndRound()
	seen := map[ID]bool{}
	for _, s := range tr.Spans() {
		if seen[s.ID] {
			t.Fatalf("duplicate span ID %#x", s.ID)
		}
		seen[s.ID] = true
	}
}
