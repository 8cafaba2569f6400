package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/ring"
	"repro/internal/simclock"
)

// oracleLog is the log as it was while each entry held its strings: an
// 88-byte record per event with the user and the name in it. The log
// must render exactly what it rendered.
type oracleLog struct{ recs ring.Ring[oracleEntry] }

type oracleEntry struct {
	at        simclock.Time
	job       job.ID
	user      job.UserID
	name      string
	x, y, z   float64
	n, m      int32
	kind      uint8
	gen, from int8
}

func (e *oracleEntry) event() Event {
	r := Record{At: e.at, Kind: logged[e.kind], Job: e.job, User: e.user, Name: e.name,
		Gen: gpu.Generation(e.gen), From: gpu.Generation(e.from), N: e.n, M: e.m, X: e.x, Y: e.y, Z: e.z}
	return Event{At: r.At, Kind: r.Kind, Job: r.Job, User: r.User, Detail: r.Detail()}
}

func (l *oracleLog) SetCap(n int) { l.recs.SetCap(n) }
func (l *oracleLog) Len() int     { return l.recs.Len() }

func (l *oracleLog) Append(rs ...Record) {
	for i := range rs {
		r := &rs[i]
		if k := r.Kind.LogIndex(); k >= 0 {
			l.recs.Push(oracleEntry{at: r.At, job: r.Job, user: r.User, name: r.Name, x: r.X, y: r.Y, z: r.Z,
				n: r.N, m: r.M, kind: uint8(k), gen: int8(r.Gen), from: int8(r.From)})
		}
	}
}

func (l *oracleLog) Filter(kind Kind) []Event {
	out := []Event{}
	for i := 0; i < l.recs.Len(); i++ {
		if e := l.recs.At(i); kind == "" || logged[e.kind] == kind {
			out = append(out, e.event())
		}
	}
	return out
}

// logOp is one step of a sequence fed to both logs: a SetCap when
// setCap, else an Append of recs.
type logOp struct {
	setCap bool
	cap    int
	recs   []Record
}

// allKinds are the logged kinds and then the observer-only ones.
var allKinds = append(logged[:len(logged):len(logged)],
	KindDecision, KindUnplaced, KindComp, KindProtocol, KindNet, KindEpoch, KindDegraded)

// Payload values the decoder picks from before it falls back to raw
// bits: the ones a rendering could get wrong.
var (
	oddFloats = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 0.005, 2.345, 3600.5, -41.5}
	oddInts  = []int32{0, 1, -1, math.MaxInt32, math.MinInt32, 7, 8, -9}
	oddJobs  = []job.ID{0, 1, -1, math.MaxInt64, math.MinInt64, 42}
	oddNames = []string{"", "alice", "user0001", "k80-0", "resnet50", "пользователь", "移行 K80→V100",
		"emoji ⚡🤝", `comma, "quotes" and
newline`, "\xff\xfe not UTF-8"}
)

// opReader decodes a byte string into log operations: it never fails,
// reading zeros once the bytes run out.
type opReader struct{ b []byte }

func (r *opReader) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *opReader) u64() uint64 {
	var w [8]byte
	n := copy(w[:], r.b)
	r.b = r.b[n:]
	return binary.LittleEndian.Uint64(w[:])
}

func (r *opReader) float() float64 {
	if c := int(r.byte()); c < len(oddFloats) {
		return oddFloats[c]
	}
	return math.Float64frombits(r.u64())
}

func (r *opReader) int32() int32 {
	if c := int(r.byte()); c < len(oddInts) {
		return oddInts[c]
	}
	return int32(r.u64())
}

func (r *opReader) name() string {
	c := int(r.byte())
	if c < len(oddNames) {
		return oddNames[c]
	}
	n := min(c-len(oddNames), 12, len(r.b))
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *opReader) record() Record {
	rec := Record{Kind: allKinds[int(r.byte())%len(allKinds)]}
	if c := int(r.byte()); c < len(oddJobs) {
		rec.Job = oddJobs[c]
	} else {
		rec.Job = job.ID(r.u64())
	}
	rec.At = simclock.Time(r.float())
	rec.User, rec.Name = job.UserID(r.name()), r.name()
	rec.Gen, rec.From = gpu.Generation(int8(r.byte())), gpu.Generation(int8(r.byte()))
	rec.N, rec.M = r.int32(), r.int32()
	rec.X, rec.Y, rec.Z = r.float(), r.float(), r.float()
	if r.byte()&1 == 1 {
		rec.Devs = []gpu.DeviceID{1, 2}
	}
	if rec.Kind == KindTrade { // a trade's payload words hold Y and Z
		rec.Job, rec.N, rec.M = 0, 0, 0
	}
	return rec
}

// decodeOps reads a sequence of at most maxOps operations: a SetCap (a
// cap from -2 to 13, so caps below the held length come up) about one
// step in eight, else an Append of one to three records.
func decodeOps(data []byte) []logOp {
	const maxOps = 256 // every step renders the whole log
	r := &opReader{b: data}
	var ops []logOp
	for len(r.b) > 0 && len(ops) < maxOps {
		c := r.byte()
		if c%8 == 0 {
			ops = append(ops, logOp{setCap: true, cap: int(c>>4) - 2})
			continue
		}
		recs := make([]Record, 1+int(c>>3)%3)
		for i := range recs {
			recs[i] = r.record()
		}
		ops = append(ops, logOp{recs: recs})
	}
	return ops
}

// sameEvents compares two renderings field by field, the time by its
// bits: a NaN time is the same NaN.
func sameEvents(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if math.Float64bits(float64(x.At)) != math.Float64bits(float64(y.At)) ||
			x.Kind != y.Kind || x.Job != y.Job || x.User != y.User || x.Detail != y.Detail {
			return false
		}
	}
	return true
}

// checkAgainstOracle feeds ops to a Log and to the oracle and wants the
// same length, drop count, Events, per-kind Filter, and CSV and JSON
// bytes (or the same error) after every step.
func checkAgainstOracle(t *testing.T, ops []logOp) {
	t.Helper()
	var got Log
	var want oracleLog
	for step, op := range ops {
		if op.setCap {
			got.SetCap(op.cap)
			want.SetCap(op.cap)
		} else {
			got.Append(op.recs...)
			want.Append(op.recs...)
		}
		if got.Len() != want.Len() || got.Dropped() != int(want.recs.Dropped()) {
			t.Fatalf("step %d: Len %d, Dropped %d; oracle %d, %d", step, got.Len(), got.Dropped(), want.Len(), want.recs.Dropped())
		}
		if g, w := got.Events(), want.Filter(""); !sameEvents(g, w) {
			t.Fatalf("step %d: Events\n got %+v\nwant %+v", step, g, w)
		}
	}
	for _, k := range allKinds {
		if g, w := got.Filter(k), want.Filter(k); !sameEvents(g, w) {
			t.Fatalf("Filter(%s)\n got %+v\nwant %+v", k, g, w)
		}
	}
	var gc, wc, gj, wj bytes.Buffer
	gErr, wErr := got.WriteCSV(&gc), WriteCSV(&wc, want.Filter(""))
	if !sameErr(gErr, wErr) || !bytes.Equal(gc.Bytes(), wc.Bytes()) {
		t.Fatalf("CSV (err %v, oracle %v)\n got %q\nwant %q", gErr, wErr, gc.Bytes(), wc.Bytes())
	}
	gErr, wErr = got.WriteJSON(&gj), WriteJSON(&wj, want.Filter(""))
	if !sameErr(gErr, wErr) || !bytes.Equal(gj.Bytes(), wj.Bytes()) {
		t.Fatalf("JSON (err %v, oracle %v)\n got %q\nwant %q", gErr, wErr, gj.Bytes(), wj.Bytes())
	}
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// oracleCases are sequences written out by hand, one per hazard: every
// logged kind beside the observer-only ones, odd floats and integers in
// every payload field, extreme job IDs, empty and non-ASCII names, and
// caps set mid-stream, below the held length among them.
func oracleCases() []oracleCase {
	var every []Record
	for i, k := range allKinds {
		r := Record{At: simclock.Time(i), Kind: k, Job: job.ID(i + 1), User: "u", Name: "resnet50",
			Gen: gpu.V100, From: gpu.K80, N: int32(i), M: int32(-i), X: 1.5, Y: 2.5, Z: 3.5}
		if k == KindTrade {
			r.Job, r.N, r.M = 0, 0, 0
		}
		every = append(every, r)
	}
	var floats, ints, names []Record
	for i, f := range oddFloats {
		for _, k := range []Kind{KindFinish, KindMigration, KindTrade, KindJobCrash, KindMigFail, KindDegrade} {
			floats = append(floats, Record{At: simclock.Time(f), Kind: k, X: f, Y: oddFloats[(i+1)%len(oddFloats)],
				Z: oddFloats[(i+2)%len(oddFloats)], Name: "seller", User: "buyer"})
		}
	}
	for i, n := range oddInts {
		for _, k := range []Kind{KindArrival, KindFinish, KindMigFail, KindFailure, KindFenceReject} {
			ints = append(ints, Record{Kind: k, Job: oddJobs[i%len(oddJobs)], N: n, M: oddInts[(i+3)%len(oddInts)]})
		}
	}
	for i, s := range oddNames {
		for _, k := range []Kind{KindArrival, KindTrade, KindLeaseExpire, KindPartitionHeal, KindFenceReject, KindProtocol} {
			names = append(names, Record{At: simclock.Time(i), Kind: k, User: job.UserID(oddNames[(i+1)%len(oddNames)]), Name: s})
		}
	}
	capped := []logOp{{recs: every}, {setCap: true, cap: 5}, {recs: floats}, {setCap: true, cap: 2},
		{recs: names}, {setCap: true, cap: 0}, {recs: ints}, {setCap: true, cap: 1 << 20}, {recs: every}}
	return []oracleCase{
		{"every kind", []logOp{{recs: every}}},
		{"odd floats", []logOp{{recs: floats}}},
		{"odd integers", []logOp{{recs: ints}}},
		{"odd names", []logOp{{recs: names}}},
		{"caps", capped},
		{"late cap", []logOp{{recs: every}, {recs: every}, {setCap: true, cap: 3}, {recs: names}}},
	}
}

type oracleCase struct {
	name string
	ops  []logOp
}

// TestLogMatchesOracle holds the log to the oracle on the hand-written
// cases and on 300 seeded random operation sequences.
func TestLogMatchesOracle(t *testing.T) {
	for _, c := range oracleCases() {
		t.Run(c.name, func(t *testing.T) { checkAgainstOracle(t, c.ops) })
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		data := make([]byte, rng.Intn(2048))
		_, _ = rng.Read(data) // a *rand.Rand's Read never fails
		checkAgainstOracle(t, decodeOps(data))
	}
}

// FuzzLogMatchesOracle is TestLogMatchesOracle on fuzzed operation
// sequences.
func FuzzLogMatchesOracle(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		data := make([]byte, 16<<i)
		_, _ = rng.Read(data) // a *rand.Rand's Read never fails
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{0x01, 4, 0, 2, 1, 3, 3, 0, 2, 3, 4, 5, 6, 0x00, 0x20})
	f.Fuzz(func(t *testing.T, data []byte) { checkAgainstOracle(t, decodeOps(data)) })
}
