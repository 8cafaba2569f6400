package netchaos

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/faults"
)

// sink records everything delivered through it.
type sink struct {
	name string
	got  []comm.Envelope
	tos  []string
}

func (s *sink) Send(to string, e comm.Envelope) error {
	s.got = append(s.got, e)
	s.tos = append(s.tos, to)
	return nil
}
func (s *sink) Recv() <-chan comm.Envelope { return nil }
func (s *sink) Name() string               { return s.name }
func (s *sink) Close() error               { return nil }

func rep(round int, seq uint64) comm.Envelope {
	e, err := comm.Seal(comm.Envelope{From: "a", Seq: seq, Msg: comm.RoundReport{Agent: "a", Round: round}})
	if err != nil {
		panic(err)
	}
	return e
}

func window(from, to int) faults.RoundInterval { return faults.RoundInterval{From: from, To: to} }

func TestDropOnlyInsideWindow(t *testing.T) {
	s := &sink{name: "a"}
	in := New(Config{Seed: 1, Faults: []Fault{
		{Kind: Drop, From: "a", To: "central", Rounds: window(2, 3)},
	}})
	tr := in.Wrap(s)

	in.Advance(1)
	if err := tr.Send("central", rep(1, 1)); err != nil {
		t.Fatal(err)
	}
	in.Advance(2)
	if err := tr.Send("central", rep(2, 2)); err != nil {
		t.Fatal(err) // a drop looks like success to the sender
	}
	in.Advance(3)
	if err := tr.Send("central", rep(3, 3)); err != nil {
		t.Fatal(err)
	}
	if len(s.got) != 2 {
		t.Fatalf("delivered %d messages, want 2 (round-2 send dropped)", len(s.got))
	}
	for _, e := range s.got {
		if e.Msg.(comm.RoundReport).Round == 2 {
			t.Error("round-2 message delivered despite drop window")
		}
	}
	if in.Stats()[Drop] != 1 {
		t.Errorf("drop fired %d times, want 1", in.Stats()[Drop])
	}
}

func TestDupDeliversIdenticalTwin(t *testing.T) {
	s := &sink{name: "a"}
	in := New(Config{Seed: 1, Faults: []Fault{{Kind: Dup, From: "a", To: "central"}}})
	tr := in.Wrap(s)
	if err := tr.Send("central", rep(1, 7)); err != nil {
		t.Fatal(err)
	}
	if len(s.got) != 2 {
		t.Fatalf("delivered %d copies, want 2", len(s.got))
	}
	if s.got[0].Seq != s.got[1].Seq || s.got[0].Sum != s.got[1].Sum {
		t.Errorf("duplicate differs from original: %+v vs %+v", s.got[0], s.got[1])
	}
}

func TestReorderSwapsWithNextSend(t *testing.T) {
	s := &sink{name: "a"}
	in := New(Config{Seed: 1, Faults: []Fault{
		{Kind: Reorder, From: "a", To: "central", Max: 1},
	}})
	tr := in.Wrap(s)
	if err := tr.Send("central", rep(1, 1)); err != nil {
		t.Fatal(err) // held
	}
	if len(s.got) != 0 {
		t.Fatalf("reordered message delivered immediately")
	}
	if err := tr.Send("central", rep(2, 2)); err != nil {
		t.Fatal(err) // goes out first, then releases the held one behind it
	}
	if len(s.got) != 2 {
		t.Fatalf("delivered %d, want 2", len(s.got))
	}
	if r0 := s.got[0].Msg.(comm.RoundReport).Round; r0 != 2 {
		t.Errorf("first delivery is round %d, want 2 (order swapped)", r0)
	}
	if r1 := s.got[1].Msg.(comm.RoundReport).Round; r1 != 1 {
		t.Errorf("second delivery is round %d, want 1", r1)
	}
}

func TestDelayReleasesAtAdvanceAndFlushDrainsEverything(t *testing.T) {
	s := &sink{name: "a"}
	in := New(Config{Seed: 1, Faults: []Fault{
		{Kind: Delay, From: "a", To: "central", Max: 1},
		{Kind: Reorder, From: "a", To: "central", Max: 1},
	}})
	tr := in.Wrap(s)
	if err := tr.Send("central", rep(1, 1)); err != nil {
		t.Fatal(err) // delayed until the next Advance
	}
	if err := tr.Send("central", rep(1, 2)); err != nil {
		t.Fatal(err) // held by the reorder
	}
	if len(s.got) != 0 {
		t.Fatalf("held messages leaked early: %d delivered", len(s.got))
	}
	in.Advance(2)
	if len(s.got) != 1 || s.got[0].Seq != 1 {
		t.Fatalf("Advance released %d messages (want the delayed seq-1 one)", len(s.got))
	}
	in.Flush()
	if len(s.got) != 2 {
		t.Fatalf("Flush left a message held: %d delivered, want 2", len(s.got))
	}
}

// TestCorruptAlwaysDetectable: corruption happens after sealing and
// never reseals, so the receiver-side checksum must reject every
// corrupted delivery — corruption can be detected, never applied.
func TestCorruptAlwaysDetectable(t *testing.T) {
	s := &sink{name: "central"}
	in := New(Config{Seed: 1, Faults: []Fault{{Kind: Corrupt, From: "central", To: "*"}}})
	tr := in.Wrap(s)
	msgs := []comm.Message{
		comm.RoundPlan{Round: 4, Quantum: 360},
		comm.RoundReport{Agent: "x", Round: 4},
		comm.Register{Agent: "x", Gen: 1, GPUs: 2},
		comm.RegisterAck{OK: true},
	}
	for i, m := range msgs {
		e, err := comm.Seal(comm.Envelope{From: "central", Seq: uint64(i + 1), Msg: m})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Send("agent-0", e); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.got) != len(msgs) {
		t.Fatalf("delivered %d, want %d", len(s.got), len(msgs))
	}
	for i, e := range s.got {
		if comm.Verify(e) {
			t.Errorf("corrupted %T still verifies", msgs[i])
		}
	}
	// Shutdown is exempt: harness teardown is out of the fault model.
	sd, err := comm.Seal(comm.Envelope{From: "central", Seq: uint64(len(msgs) + 1), Msg: comm.Shutdown{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Send("agent-0", sd); err != nil {
		t.Fatal(err)
	}
	if !comm.Verify(s.got[len(s.got)-1]) {
		t.Error("shutdown was disturbed")
	}
}

func TestPartitionCutsBothDirectionsOneWayOnlyOne(t *testing.T) {
	a := &sink{name: "a"}
	b := &sink{name: "b"}
	in := New(Config{Seed: 1, Faults: []Fault{
		{Kind: Partition, From: "a", To: "b", Rounds: window(1, 2)},
		{Kind: OneWay, From: "a", To: "c", Rounds: window(1, 2)},
	}})
	ta, tb := in.Wrap(a), in.Wrap(b)
	in.Advance(1)
	if err := ta.Send("b", rep(1, 1)); err == nil {
		t.Error("a→b send survived the full partition")
	}
	if err := tb.Send("a", rep(1, 1)); err == nil {
		t.Error("b→a send survived the full partition")
	}
	if err := ta.Send("c", rep(1, 2)); err == nil {
		t.Error("a→c send survived the one-way partition")
	}
	// One-way means the reverse direction still works. The "c" side
	// reuses a's sink transport under a different name.
	c := &sink{name: "c"}
	if err := in.Wrap(c).Send("a", rep(1, 3)); err != nil {
		t.Errorf("c→a should pass a one-way a→c partition: %v", err)
	}
	in.Advance(2)
	if err := ta.Send("b", rep(2, 4)); err != nil {
		t.Errorf("partition did not heal at window end: %v", err)
	}
}

// TestHashCoinDeterminism: a probabilistic fault's firing pattern is
// a pure function of (seed, fault, round, seq, link) — two injectors
// with the same seed agree on every message, regardless of call
// order or timing.
func TestHashCoinDeterminism(t *testing.T) {
	pattern := func(seed int64) []bool {
		s := &sink{name: "a"}
		in := New(Config{Seed: seed, Faults: []Fault{
			{Kind: Drop, From: "a", To: "central", Prob: 0.5},
		}})
		tr := in.Wrap(s)
		var out []bool
		for round := 1; round <= 4; round++ {
			in.Advance(round)
			for seq := uint64(1); seq <= 8; seq++ {
				before := len(s.got)
				if err := tr.Send("central", rep(round, uint64(round)*100+seq)); err != nil {
					t.Fatal(err)
				}
				out = append(out, len(s.got) == before) // true = dropped
			}
		}
		return out
	}
	p1, p2 := pattern(99), pattern(99)
	dropped := 0
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("same seed diverged at message %d", i)
		}
		if p1[i] {
			dropped++
		}
	}
	// Sanity: the coin is actually probabilistic, not constant.
	if dropped == 0 || dropped == len(p1) {
		t.Errorf("Prob 0.5 dropped %d of %d — coin looks constant", dropped, len(p1))
	}
}

func TestFirstArmedFaultWinsAndMaxCaps(t *testing.T) {
	s := &sink{name: "a"}
	in := New(Config{Seed: 1, Faults: []Fault{
		{Kind: Drop, From: "a", To: "central", Max: 1},
		{Kind: Dup, From: "a", To: "central"},
	}})
	tr := in.Wrap(s)
	if err := tr.Send("central", rep(1, 1)); err != nil {
		t.Fatal(err) // drop wins while armed
	}
	if err := tr.Send("central", rep(1, 2)); err != nil {
		t.Fatal(err) // drop capped out; dup takes over
	}
	if got := in.Stats()[Drop]; got != 1 {
		t.Errorf("drop fired %d, want 1 (Max respected)", got)
	}
	if got := in.Stats()[Dup]; got != 1 {
		t.Errorf("dup fired %d, want 1", got)
	}
	if len(s.got) != 2 {
		t.Errorf("delivered %d, want 2 (message 1 dropped, message 2 duplicated)", len(s.got))
	}
}
