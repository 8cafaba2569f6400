package comm

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/obs/span"
)

// fullMessages is one of each protocol message with every field set
// and every slice (nested ones too) non-empty, so a walk over the
// values reaches every leaf the types declare.
func fullMessages() []Message {
	return []Message{
		Register{Agent: "a", Gen: 1, GPUs: 4},
		RegisterAck{OK: true, Reason: "r"},
		RoundPlan{Round: 3, Quantum: 360, Epoch: 2, Lease: 4, AckRound: 1, Trace: 9, Span: 11,
			Jobs: []JobAssignment{
				{JobID: 7, User: "u", Model: "m", Gang: 2, LocalGPUs: []int{0, 1},
					DoneMB: 5, TotalMB: 100, GangRate: 3, Overhead: 2, Shard: 0.5},
				{JobID: 8, User: "v", Model: "n", Gang: 1, LocalGPUs: []int{2},
					DoneMB: 6, TotalMB: 200, GangRate: 4, Overhead: 1, Shard: 1},
			}},
		RoundReport{Agent: "a", Round: 3, Epoch: 2,
			Jobs:  []JobProgress{{JobID: 7, DoneMB: 50, Finished: true, UsedSecs: 360}},
			Spans: []span.Span{{Trace: 4, ID: 5, Parent: 6, Name: "x", Proc: "p", Round: 3, SimAt: 1080, StartNs: 12, DurNs: 13}}},
		Shutdown{},
	}
}

// perturbLeaves changes every leaf under v, one at a time, calling
// check while the change is in place and undoing it afterwards. Kinds
// the protocol does not use today fail the test: a new kind needs a
// hashing rule first.
func perturbLeaves(t *testing.T, v reflect.Value, path string, check func(path string)) {
	t.Helper()
	try := func(to reflect.Value) {
		old := reflect.New(v.Type()).Elem()
		old.Set(v)
		v.Set(to.Convert(v.Type()))
		check(path)
		v.Set(old)
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				t.Fatalf("%s.%s: unexported field in a protocol message", path, f.Name)
			}
			perturbLeaves(t, v.Field(i), path+"."+f.Name, check)
		}
	case reflect.Slice:
		if v.Len() == 0 {
			t.Fatalf("%s: empty slice in the full sample hides its element fields", path)
		}
		for i := 0; i < v.Len(); i++ {
			perturbLeaves(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), check)
		}
		try(v.Slice(0, v.Len()-1))
	case reflect.Bool:
		try(reflect.ValueOf(!v.Bool()))
	case reflect.Int, reflect.Int64:
		try(reflect.ValueOf(v.Int() + 1))
	case reflect.Uint64:
		try(reflect.ValueOf(v.Uint() + 1))
	case reflect.Float64:
		try(reflect.ValueOf(v.Float() + 0.5))
	case reflect.String:
		try(reflect.ValueOf(v.String() + "x"))
	default:
		t.Fatalf("%s: kind %s has no checksum rule", path, v.Kind())
	}
}

// TestChecksumCoversEveryField fails when a field is added to a
// protocol message (or to a struct nested in one) and forgotten in
// Checksum: such a field could be corrupted on the wire unnoticed.
func TestChecksumCoversEveryField(t *testing.T) {
	for _, m := range fullMessages() {
		v := reflect.New(reflect.TypeOf(m)).Elem()
		v.Set(reflect.ValueOf(m))
		want, err := Checksum(m)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		perturbLeaves(t, v, fmt.Sprintf("%T", m), func(path string) {
			got, err := Checksum(v.Interface())
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if got == want {
				t.Errorf("%s: checksum unchanged by a change to the field", path)
			}
		})
		if again, _ := Checksum(v.Interface()); again != want {
			t.Fatalf("%T: walk did not restore the value", m)
		}
	}
	// The type tag separates messages whose fields hash alike.
	a, _ := Checksum(Shutdown{})
	b, _ := Checksum(RegisterAck{})
	if a == b {
		t.Error("Shutdown and zero RegisterAck share a checksum")
	}
}

// numericLeaves calls visit on every integer, uint64 and float leaf
// under v, struct fields and slice elements included.
func numericLeaves(v reflect.Value, path string, visit func(v reflect.Value, path string)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			numericLeaves(v.Field(i), path+"."+v.Type().Field(i).Name, visit)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			numericLeaves(v.Index(i), fmt.Sprintf("%s[%d]", path, i), visit)
		}
	case reflect.Int, reflect.Int64, reflect.Uint64, reflect.Float64:
		visit(v, path)
	}
}

// TestChecksumDetectsEveryBitFlip flips each of the 64 bits of every
// numeric leaf, one at a time, in every full message and in a copy of
// it whose numbers are all zero, and requires a different sum. A mix
// that dropped or cancelled some bits of a word passes
// TestChecksumCoversEveryField, which only adds one, and fails here.
// The one flip that must keep the sum turns a float +0 into -0, which
// Checksum folds together (see TestChecksumCanonicalForms).
func TestChecksumDetectsEveryBitFlip(t *testing.T) {
	var samples []reflect.Value
	for _, zero := range []bool{false, true} {
		for _, m := range fullMessages() { // each call builds its own slices
			v := reflect.New(reflect.TypeOf(m)).Elem()
			v.Set(reflect.ValueOf(m))
			if zero {
				numericLeaves(v, "", func(leaf reflect.Value, _ string) { leaf.SetZero() })
			}
			samples = append(samples, v)
		}
	}
	flips, signedZeros := 0, 0
	for _, v := range samples {
		want, err := Checksum(v.Interface())
		if err != nil {
			t.Fatalf("%s: %v", v.Type(), err)
		}
		numericLeaves(v, v.Type().String(), func(leaf reflect.Value, path string) {
			for bit := 0; bit < 64; bit++ {
				mask := uint64(1) << bit
				old := reflect.New(leaf.Type()).Elem()
				old.Set(leaf)
				keep := false
				switch leaf.Kind() {
				case reflect.Int, reflect.Int64:
					leaf.SetInt(int64(uint64(leaf.Int()) ^ mask))
				case reflect.Uint64:
					leaf.SetUint(leaf.Uint() ^ mask)
				case reflect.Float64:
					f := math.Float64frombits(math.Float64bits(leaf.Float()) ^ mask)
					keep = f == 0 && leaf.Float() == 0
					leaf.SetFloat(f)
				}
				got, err := Checksum(v.Interface())
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				switch {
				case keep:
					signedZeros++
					if got != want {
						t.Errorf("%s: flipping the sign of zero changed the sum", path)
					}
				case got == want:
					t.Errorf("%s: flipping bit %d left the sum unchanged", path, bit)
				}
				flips++
				leaf.Set(old)
			}
		})
		if again, _ := Checksum(v.Interface()); again != want {
			t.Fatalf("%s: walk did not restore the value", v.Type())
		}
	}
	if signedZeros == 0 {
		t.Fatal("no sample flipped a zero float's sign: the canonical fold went unchecked")
	}
	t.Logf("%d single-bit flips, %d of them a zero's sign", flips, signedZeros)
}

// TestChecksumFieldBoundaries: moving bytes or elements across a field
// boundary must change the sum (length prefixes, not concatenation).
func TestChecksumFieldBoundaries(t *testing.T) {
	plan := func(jobs ...JobAssignment) Message { return RoundPlan{Round: 1, Jobs: jobs} }
	cases := []struct {
		name string
		a, b Message
	}{
		{"string bytes",
			plan(JobAssignment{User: "ab", Model: "c"}),
			plan(JobAssignment{User: "a", Model: "bc"})},
		{"slice element",
			plan(JobAssignment{LocalGPUs: []int{0, 1}}, JobAssignment{LocalGPUs: []int{2}}),
			plan(JobAssignment{LocalGPUs: []int{0}}, JobAssignment{LocalGPUs: []int{1, 2}})},
		{"string into next message field",
			RegisterAck{Reason: "ab"}, RegisterAck{Reason: "a"}},
	}
	for _, c := range cases {
		sa, errA := Checksum(c.a)
		sb, errB := Checksum(c.b)
		if errA != nil || errB != nil {
			t.Fatalf("%s: %v %v", c.name, errA, errB)
		}
		if sa == sb {
			t.Errorf("%s: boundary shift not detected", c.name)
		}
	}
}

// TestChecksumCanonicalForms: values a gob round trip cannot tell
// apart must hash alike.
func TestChecksumCanonicalForms(t *testing.T) {
	same := func(name string, a, b Message) {
		t.Helper()
		sa, _ := Checksum(a)
		sb, _ := Checksum(b)
		if sa != sb {
			t.Errorf("%s: sums differ", name)
		}
	}
	same("nil vs empty Jobs", RoundPlan{Round: 1}, RoundPlan{Round: 1, Jobs: []JobAssignment{}})
	same("nil vs empty LocalGPUs",
		RoundPlan{Jobs: []JobAssignment{{JobID: 1}}},
		RoundPlan{Jobs: []JobAssignment{{JobID: 1, LocalGPUs: []int{}}}})
	same("nil vs empty Spans", RoundReport{Agent: "a"}, RoundReport{Agent: "a", Jobs: []JobProgress{}, Spans: []span.Span{}})
	same("negative zero", RoundPlan{Quantum: 0}, RoundPlan{Quantum: math.Copysign(0, -1)})
}

func TestChecksumRejectsOtherTypes(t *testing.T) {
	for _, m := range []Message{nil, "text", 7, &RoundPlan{}, struct{ X int }{1}} {
		if _, err := Checksum(m); err == nil {
			t.Errorf("Checksum(%T) succeeded", m)
		}
		if e, err := Seal(Envelope{Msg: m}); err == nil || e.Sum != 0 {
			t.Errorf("Seal(%T) sealed a non-protocol payload", m)
		}
		if Verify(Envelope{Sum: 5, Msg: m}) {
			t.Errorf("Verify accepted a sealed %T", m)
		}
	}
}

// TestSealSumNeverZero: Sum 0 is what an unsealed envelope carries, so
// a sealed envelope never does; a payload other than a protocol message
// has no sum.
func TestSealSumNeverZero(t *testing.T) {
	for _, m := range fullMessages() {
		raw, _ := Checksum(m)
		got, err := sealSum(m)
		if err != nil || got == 0 || (raw != 0 && got != raw) {
			t.Errorf("sealSum(%T) = %d, %v (checksum %d)", m, got, err, raw)
		}
	}
	if got := nonzero(0); got != 1 {
		t.Errorf("zero hash sealed as %d, want 1", got)
	}
	if got := nonzero(42); got != 42 {
		t.Errorf("nonzero hash rewritten to %d", got)
	}
}

func TestChecksumDoesNotAllocate(t *testing.T) {
	plan := RoundPlan{Round: 3, Quantum: 360, Epoch: 1}
	for i := 0; i < 16; i++ {
		plan.Jobs = append(plan.Jobs, JobAssignment{JobID: int64(i), User: "user", Model: "resnet50",
			Gang: 2, LocalGPUs: []int{0, 1}, TotalMB: 1e6, GangRate: 5, Shard: 1})
	}
	env, err := Seal(Envelope{From: "central", Seq: 1, Msg: plan})
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Checksum(env.Msg); err != nil {
			t.Fatal(err)
		}
		if !Verify(env) {
			t.Fatal("sealed plan does not verify")
		}
	}); n != 0 {
		t.Errorf("Checksum+Verify allocate %.0f times per 16-job plan, want 0", n)
	}
}

// TestSealSurvivesTCP: the TCP frame is the whole envelope, so Seq and
// Sum arrive as sent, and the sum is taken over field values, so it
// still verifies after gob rebuilt the payload on the far side — where
// empty slices come back nil and zero fields were never sent.
func TestSealSurvivesTCP(t *testing.T) {
	srv, err := ListenTCP("central", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialTCP("agent-1", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Send("central", Envelope{From: "agent-1", Msg: Register{Agent: "agent-1", GPUs: 4}}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, srv)

	down := []Message{
		RoundPlan{Round: 2, Quantum: 360, Jobs: []JobAssignment{}},
		RoundPlan{Round: 3, Quantum: 360, Jobs: []JobAssignment{{JobID: 1, LocalGPUs: []int{}, Overhead: math.Copysign(0, -1)}}},
		fullMessages()[2],
	}
	for i, m := range down {
		env, err := Seal(Envelope{From: "central", Seq: uint64(i + 1), Msg: m})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Send("agent-1", env); err != nil {
			t.Fatal(err)
		}
		if got := recvOne(t, cli); !Verify(got) || got.Seq != env.Seq || got.From != "central" {
			t.Errorf("plan %d after TCP: %+v, want it verified with seq %d from central", i, got, env.Seq)
		}
	}
	up := []Message{
		RoundReport{Agent: "agent-1", Round: 2, Jobs: []JobProgress{}, Spans: []span.Span{}},
		fullMessages()[3],
	}
	for i, m := range up {
		env, err := Seal(Envelope{From: "agent-1", Seq: uint64(i + 1), Msg: m})
		if err != nil {
			t.Fatal(err)
		}
		if err := cli.Send("central", env); err != nil {
			t.Fatal(err)
		}
		if got := recvOne(t, srv); !Verify(got) || got.Seq != env.Seq || got.From != "agent-1" {
			t.Errorf("report %d after TCP: %+v, want it verified with seq %d from agent-1", i, got, env.Seq)
		}
	}
}

func TestSealVerifyRoundTrip(t *testing.T) {
	msgs := []Message{
		Register{Agent: "a", Gen: 1, GPUs: 4},
		RegisterAck{OK: true},
		RoundPlan{Round: 3, Epoch: 2, Lease: 4, AckRound: 1, Quantum: 360,
			Jobs: []JobAssignment{{JobID: 7, User: "u", Gang: 1, LocalGPUs: []int{0}, TotalMB: 100}}},
		RoundReport{Agent: "a", Round: 3, Epoch: 2,
			Jobs: []JobProgress{{JobID: 7, DoneMB: 50, UsedSecs: 360}}},
		Shutdown{},
	}
	for i, m := range msgs {
		e, err := Seal(Envelope{From: "a", Seq: uint64(i + 1), Msg: m})
		if err != nil {
			t.Fatalf("seal %T: %v", m, err)
		}
		if e.Sum == 0 {
			t.Fatalf("seal %T left Sum 0", m)
		}
		if !Verify(e) {
			t.Errorf("sealed %T does not verify", m)
		}
	}
}

func TestVerifyDetectsMutation(t *testing.T) {
	e, err := Seal(Envelope{From: "a", Seq: 1, Msg: RoundReport{Agent: "a", Round: 2,
		Jobs: []JobProgress{{JobID: 1, DoneMB: 10}}}})
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the payload after sealing, exactly like the corruption
	// injector does: the checksum no longer matches.
	m := e.Msg.(RoundReport)
	m.Round += 1 << 20
	e.Msg = m
	if Verify(e) {
		t.Error("mutated payload verified")
	}
	// The sequence number is not covered by the payload checksum (the
	// dedup layer owns it), but the checksum still rejects a swapped
	// payload under any seq.
	e2, _ := Seal(Envelope{From: "a", Seq: 9, Msg: RoundReport{Agent: "a", Round: 2}})
	e2.Msg = RoundReport{Agent: "a", Round: 3}
	if Verify(e2) {
		t.Error("swapped payload verified")
	}
}

// TestVerifyRefusesUnsealed: an envelope nobody sealed carries Sum 0,
// which no seal produces, so it never verifies, whatever its payload
// and without one.
func TestVerifyRefusesUnsealed(t *testing.T) {
	for _, m := range append(fullMessages(), nil) {
		if Verify(Envelope{From: "a", Seq: 1, Msg: m}) {
			t.Errorf("unsealed %T verified", m)
		}
	}
}

// TestAdmitIsTheReceiveCheck: what each envelope a protocol end can
// receive is counted as, in order — corruption, then redelivery — and
// that a Register resets its sender's window instead of being dropped.
func TestAdmitIsTheReceiveCheck(t *testing.T) {
	seal := func(from string, seq uint64, m Message) Envelope {
		t.Helper()
		e, err := Seal(Envelope{From: from, Seq: seq, Msg: m})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	rep := func(round int) Message { return RoundReport{Agent: "a", Round: round} }
	corrupt := seal("a", 3, rep(1))
	corrupt.Msg = rep(2)
	unsequenced := seal("a", 0, rep(1))
	unsealed := seal("a", 4, rep(1))
	unsealed.Sum = 0
	noPayload := seal("a", 5, rep(1))
	noPayload.Msg = nil
	reg := seal("a", 1, Register{Agent: "a", GPUs: 1})

	d := NewDedup()
	for i, step := range []struct {
		e    Envelope
		want string
	}{
		{seal("a", 1, rep(1)), ""},
		{seal("a", 1, rep(1)), "dup_dropped"},
		{corrupt, "corrupt_detected"},
		{unsequenced, "corrupt_detected"},
		{unsealed, "corrupt_detected"},
		{noPayload, "corrupt_detected"},
		{seal("b", 1, rep(1)), ""}, // peers are independent
		{seal("a", 2, rep(2)), ""},
		{reg, ""}, // a restarted agent: its numbering starts over
		{reg, ""}, // and a Register is never a duplicate
		{seal("a", 1, rep(1)), ""},
		{seal("a", 1, rep(1)), "dup_dropped"},
	} {
		if got := d.Admit(step.e); got != step.want {
			t.Errorf("step %d (%T seq %d): Admit = %q, want %q", i, step.e.Msg, step.e.Seq, got, step.want)
		}
	}
}

func TestDedupDropsReplays(t *testing.T) {
	d := NewDedup()
	if d.Duplicate("a", 5) {
		t.Error("first delivery flagged as duplicate")
	}
	if !d.Duplicate("a", 5) {
		t.Error("replay not flagged")
	}
	if d.Duplicate("a", 4) {
		t.Error("out-of-order first delivery flagged")
	}
	if !d.Duplicate("a", 4) {
		t.Error("out-of-order replay not flagged")
	}
	// Senders number from 1: seq 0 is below every window, for a known
	// peer and a new one alike.
	if !d.Duplicate("a", 0) || !d.Duplicate("c", 0) {
		t.Error("seq 0 not flagged")
	}
	// Peers are independent.
	if d.Duplicate("b", 5) {
		t.Error("peer b's first delivery flagged")
	}
}

func TestDedupResetForgetsPeer(t *testing.T) {
	d := NewDedup()
	if d.Duplicate("a", 1) {
		t.Fatal("first delivery flagged")
	}
	d.Reset("a")
	// A restarted agent restarts its sequence space: after Reset the
	// old numbers are fresh again.
	if d.Duplicate("a", 1) {
		t.Error("post-reset delivery flagged as duplicate")
	}
}

func TestDedupWindowBounded(t *testing.T) {
	d := NewDedup()
	n := uint64(3 * 4096) // far past the retention window
	for i := uint64(1); i <= n; i++ {
		if d.Duplicate("a", i) {
			t.Fatalf("fresh seq %d flagged", i)
		}
	}
	// Recent history is still exact.
	if !d.Duplicate("a", n) {
		t.Error("recent replay not flagged")
	}
	// Sequence numbers below the pruned floor are conservatively
	// treated as duplicates rather than remembered individually.
	if !d.Duplicate("a", 1) {
		t.Error("ancient replay below the window not flagged")
	}
}

// setDedup is the seen-set kept literally, one map entry per sequence
// number: the definition the run-based Dedup must agree with.
type setDedup struct {
	window     int
	seen       map[uint64]bool
	max, floor uint64
}

func (d *setDedup) duplicate(seq uint64) bool {
	if seq <= d.floor || d.seen[seq] {
		return true
	}
	d.seen[seq] = true
	d.max = max(d.max, seq)
	if len(d.seen) > d.window {
		d.floor = d.max - uint64(d.window/2)
		for s := range d.seen {
			if s <= d.floor {
				delete(d.seen, s)
			}
		}
	}
	return false
}

// TestDedupMatchesSetReference feeds Dedup and the literal set the
// same stream and requires the same verdict on every message: in
// order with replays, reordered inside a horizon, with numbers the
// sender burnt, across an epoch jump of the sequence space, and with
// stragglers from far below the window, each for several windows.
func TestDedupMatchesSetReference(t *testing.T) {
	streams := map[string]func(rng *rand.Rand, i int, next *uint64) uint64{
		"in-order": func(rng *rand.Rand, i int, next *uint64) uint64 {
			*next++
			return *next
		},
		"replays": func(rng *rand.Rand, i int, next *uint64) uint64 {
			if rng.Intn(3) == 0 && *next > 0 {
				return *next - uint64(rng.Intn(int(min(*next, 40))))
			}
			*next++
			return *next
		},
		"reordered": func(rng *rand.Rand, i int, next *uint64) uint64 {
			return uint64(i/16*16 + rng.Intn(48) + 1)
		},
		"burnt": func(rng *rand.Rand, i int, next *uint64) uint64 {
			*next += uint64(1 + rng.Intn(3)/2)
			return *next
		},
		"epoch-jump": func(rng *rand.Rand, i int, next *uint64) uint64 {
			if i == 6000 {
				*next += 1 << 32
			}
			if rng.Intn(8) == 0 {
				return uint64(1 + rng.Intn(7000)) // the old epoch, late
			}
			*next++
			return *next
		},
		"stragglers": func(rng *rand.Rand, i int, next *uint64) uint64 {
			if rng.Intn(5) == 0 {
				return uint64(1 + rng.Intn(int(*next)+1))
			}
			*next += uint64(1 + rng.Intn(2))
			return *next
		},
		"sparse": func(rng *rand.Rand, i int, next *uint64) uint64 {
			return uint64(1 + rng.Intn(20000))
		},
	}
	for name, gen := range streams {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			d := NewDedup()
			ref := &setDedup{window: d.window, seen: make(map[uint64]bool)}
			var next uint64
			for i := 0; i < 4*d.window; i++ {
				seq := gen(rng, i, &next)
				if got, want := d.Duplicate("p", seq), ref.duplicate(seq); got != want {
					t.Fatalf("message %d, seq %d: Duplicate = %v, the literal set says %v", i, seq, got, want)
				}
				if p := d.peers["p"]; p != nil && (p.n != len(ref.seen) || p.floor != ref.floor) {
					t.Fatalf("message %d, seq %d: holds %d above floor %d, the literal set %d above %d",
						i, seq, p.n, p.floor, len(ref.seen), ref.floor)
				}
			}
		})
	}
}

// TestDedupInOrderHoldsOneRun pins what the run form is for: a healthy
// peer's window is one run, however long the peer has been talking,
// and recording a message allocates nothing.
func TestDedupInOrderHoldsOneRun(t *testing.T) {
	d := NewDedup()
	seq := uint64(1) << 32 // an epoch-salted space starts here
	d.Duplicate("central", seq)
	allocs := testing.AllocsPerRun(3*d.window, func() {
		seq++
		if d.Duplicate("central", seq) {
			t.Fatalf("fresh seq %d flagged", seq)
		}
	})
	if allocs != 0 {
		t.Errorf("in-order Duplicate allocates %.1f times a message", allocs)
	}
	if runs := d.peers["central"].runs; len(runs) != 1 || runs[0].hi != seq {
		t.Errorf("in-order peer holds %d runs, the last %v; want one ending at %d", len(runs), runs[len(runs)-1], seq)
	}
}

// flakyDupTransport fails the first Send per destination, then
// delivers every successful send twice — the worst-case wire for a
// retrying sender.
type flakyDupTransport struct {
	Transport
	failed map[string]bool
}

func (f *flakyDupTransport) Send(to string, e Envelope) error {
	if !f.failed[to] {
		f.failed[to] = true
		return fmt.Errorf("flaky: first attempt to %s dropped", to)
	}
	if err := f.Transport.Send(to, e); err != nil {
		return err
	}
	return f.Transport.Send(to, e)
}

// TestRetrierDedupInterplay drives a Retrier over a transport that
// both fails (forcing retries) and duplicates deliveries: because the
// sequence number is stamped once per logical send, the receiving
// Dedup applies each message exactly once no matter how many copies
// the wire produced.
func TestRetrierDedupInterplay(t *testing.T) {
	hub := NewHub()
	sender, err := hub.Attach("sender")
	if err != nil {
		t.Fatal(err)
	}
	recv, err := hub.Attach("recv")
	if err != nil {
		t.Fatal(err)
	}
	wire := &flakyDupTransport{Transport: sender, failed: make(map[string]bool)}
	r := NewRetrier(RetryPolicy{MaxAttempts: 3, BaseDelay: 1, MaxDelay: 1, Seed: 1})

	const sends = 20
	for i := 0; i < sends; i++ {
		if err := r.Send(wire, "recv", Envelope{From: "sender", Msg: RoundReport{Agent: "sender", Round: i + 1}}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}

	d := NewDedup()
	applied := 0
	for i := 0; i < sends*2; i++ { // every send delivered twice
		env := <-recv.Recv()
		if !Verify(env) {
			t.Fatalf("delivery %d failed verification", i)
		}
		if d.Duplicate(env.From, env.Seq) {
			continue
		}
		applied++
	}
	if applied != sends {
		t.Errorf("applied %d of %d logical sends (duplication leaked through)", applied, sends)
	}
}
