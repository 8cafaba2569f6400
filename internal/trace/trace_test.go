package trace

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/simclock"
)

// Dropped returns how many events the cap has discarded.
func (l *Log) Dropped() int { return int(l.recs.Dropped()) }

func fixture() *Log {
	l := &Log{}
	l.Append(
		Record{At: 0, Kind: KindArrival, Job: 1, User: "alice", Name: "vae", N: 2},
		Record{At: 60, Kind: KindStart, Job: 1, User: "alice", Gen: gpu.V100},
		Record{At: 120, Kind: KindMigration, Job: 1, User: "alice", Gen: gpu.K80, X: 35.4},
		Record{At: 3600.5, Kind: KindFinish, Job: 1, User: "alice", X: 3600.5, N: 1},
	)
	return l
}

// everyKind is one record of every kind with every payload field the
// kind uses set, and the detail it must render: the exported trace's
// text is pinned here, kind by kind.
var everyKind = []struct {
	rec    Record
	detail string
}{
	{Record{Kind: KindArrival, Job: 1, User: "u", Name: "resnet50", N: 4}, "model=resnet50 gang=4"},
	{Record{Kind: KindStart, Job: 1, User: "u", Gen: gpu.P100}, "gen=P100"},
	{Record{Kind: KindFinish, Job: 1, User: "u", X: 7199.6, N: 3}, "jct=7200s migrations=3"},
	{Record{Kind: KindMigration, Job: 1, User: "u", Gen: gpu.V100, X: 41.5}, "to=V100 cost=42s"},
	{Record{Kind: KindTrade, User: "buyer", Name: "seller", Gen: gpu.V100, From: gpu.K80, X: 1, Y: 2.345, Z: 2.5},
		"seller=seller fast=V100 slow=K80 dFast=1.00 dSlow=2.35 price=2.50"},
	{Record{Kind: KindFailure, N: 7}, "server=7"},
	{Record{Kind: KindRecovery, N: 7}, "server=7"},
	{Record{Kind: KindJobCrash, Job: 1, User: "u", X: 12.34, N: 2}, "lostMB=12.3 crashes=2"},
	{Record{Kind: KindMigFail, Job: 1, User: "u", N: 3, M: 8, X: 30}, "attempt=3 backoff=8 cost=30s"},
	{Record{Kind: KindQuarantine, N: 2}, "server=2"},
	{Record{Kind: KindUnquarantine, N: 2}, "server=2"},
	{Record{Kind: KindDegrade, N: 5, X: 0.5}, "server=5 factor=0.50"},
	{Record{Kind: KindDegradeEnd, N: 5}, "server=5"},
	{Record{Kind: KindLeaseExpire, Name: "k80-0"}, "agent=k80-0"},
	{Record{Kind: KindPartitionHeal, Name: "k80-0"}, "agent=k80-0"},
	{Record{Kind: KindFenceReject, Name: "k80-0", N: 9, M: 1}, "agent=k80-0 round=9 epoch=1"},
}

func TestAppendAndFilter(t *testing.T) {
	l := fixture()
	if l.Len() != 4 {
		t.Fatalf("Len = %d", l.Len())
	}
	mig := l.Filter(KindMigration)
	if len(mig) != 1 || mig[0].Detail != "to=K80 cost=35s" {
		t.Fatalf("Filter = %+v", mig)
	}
	if len(l.Filter(KindTrade)) != 0 {
		t.Error("Filter invented events")
	}
}

func TestWriteCSVRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	if err := fixture().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows, want header+4", len(rows))
	}
	if rows[0][0] != "at_seconds" {
		t.Errorf("header = %v", rows[0])
	}
	if rows[4][0] != "3600.500" || rows[4][1] != "finish" || rows[4][3] != "alice" {
		t.Errorf("last row = %v", rows[4])
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	if err := fixture().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var events []Event
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("decoded %d events", len(events))
	}
	if events[1].Kind != KindStart || events[1].Detail != "gen=V100" {
		t.Errorf("event 1 = %+v", events[1])
	}
}

func TestEmptyLog(t *testing.T) {
	var l Log
	var buf bytes.Buffer
	if err := l.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 1 {
		t.Errorf("empty CSV has %d lines, want header only", got)
	}
}

func TestEventKindsComplete(t *testing.T) {
	l := &Log{}
	for i, k := range everyKind {
		k.rec.At = simclock.Time(i)
		l.Append(k.rec)
	}
	if l.Len() != len(everyKind) {
		t.Fatalf("logged %d of %d kinds", l.Len(), len(everyKind))
	}
	for _, k := range everyKind {
		if len(l.Filter(k.rec.Kind)) != 1 {
			t.Errorf("kind %s not round-tripped through Filter", k.rec.Kind)
		}
	}
}

// TestObserverKindsNotLogged: the kinds only a live observer consumes
// travel in the same stream but never reach a run's exported trace.
func TestObserverKindsNotLogged(t *testing.T) {
	l := &Log{}
	for _, k := range []Kind{KindDecision, KindUnplaced, KindComp, KindProtocol, KindNet, KindEpoch, KindDegraded} {
		l.Append(Record{Kind: k, Name: "x", Devs: []gpu.DeviceID{1}})
	}
	if l.Len() != 0 {
		t.Errorf("log kept %d observer-only records: %+v", l.Len(), l.Events())
	}
}

func TestEventsAccessor(t *testing.T) {
	l := fixture()
	ev := l.Events()
	if len(ev) != l.Len() {
		t.Fatalf("Events() returned %d of %d", len(ev), l.Len())
	}
	if ev[0].Kind != KindArrival {
		t.Errorf("first event = %+v", ev[0])
	}
}

// failWriter errors after n bytes to exercise writer error paths.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errWrite
	}
	take := len(p)
	if take > w.n {
		take = w.n
	}
	w.n -= take
	if take < len(p) {
		return take, errWrite
	}
	return take, nil
}

var errWrite = errors.New("writer full")

func TestWriteErrorsPropagate(t *testing.T) {
	l := fixture()
	if err := l.WriteCSV(&failWriter{n: 10}); err == nil {
		t.Error("WriteCSV swallowed the writer error")
	}
	if err := l.WriteJSON(&failWriter{n: 10}); err == nil {
		t.Error("WriteJSON swallowed the writer error")
	}
}

// TestExportRoundTripsEveryKind pushes one record of every logged kind
// through both exporters and back, pinning each kind's rendered detail.
func TestExportRoundTripsEveryKind(t *testing.T) {
	l := &Log{}
	for i, k := range everyKind {
		k.rec.At = simclock.Time(i) * 100
		l.Append(k.rec)
	}
	want := l.Events()
	for i, k := range everyKind {
		if want[i].Detail != k.detail {
			t.Errorf("%s detail = %q, want %q", k.rec.Kind, want[i].Detail, k.detail)
		}
	}

	var cbuf, jbuf bytes.Buffer
	if err := l.WriteCSV(&cbuf); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadCSV(&cbuf); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("CSV round trip (err %v):\n got %+v\nwant %+v", err, got, want)
	}
	if err := l.WriteJSON(&jbuf); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadJSON(&jbuf); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("JSON round trip (err %v):\n got %+v\nwant %+v", err, got, want)
	}
}

// TestEmptyLogJSON checks an empty log exports [] rather than null.
func TestEmptyLogJSON(t *testing.T) {
	var l Log
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if s := strings.TrimSpace(buf.String()); s != "[]" {
		t.Errorf("empty JSON export = %q, want []", s)
	}
	var events []Event
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Errorf("decoded %d events from empty log", len(events))
	}
}

// TestNonASCIIDetail runs multibyte and quote-laden details through
// both exporters: content must survive escaping byte-for-byte.
func TestNonASCIIDetail(t *testing.T) {
	details := []string{
		"移行 K80→V100 α=1.4",
		"préempté, «guillemets», ümlauts",
		`comma, "quotes" and
newline`,
		"emoji ⚡🤝 trade",
	}
	var rows0 []Event
	for i, d := range details {
		rows0 = append(rows0, Event{At: simclock.Time(i), Kind: KindTrade, Job: 1, User: "пользователь", Detail: d})
	}

	var cbuf bytes.Buffer
	if err := WriteCSV(&cbuf, rows0); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&cbuf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range details {
		if rows[i+1][4] != d {
			t.Errorf("CSV detail %d = %q, want %q", i+1, rows[i+1][4], d)
		}
		if rows[i+1][3] != "пользователь" {
			t.Errorf("CSV user %d = %q", i+1, rows[i+1][3])
		}
	}

	var jbuf bytes.Buffer
	if err := WriteJSON(&jbuf, rows0); err != nil {
		t.Fatal(err)
	}
	var events []Event
	if err := json.Unmarshal(jbuf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	for i, d := range details {
		if events[i].Detail != d {
			t.Errorf("JSON detail %d = %q, want %q", i, events[i].Detail, d)
		}
	}
}

// TestSetCapRingSemantics covers the bounded-log satellite: eviction
// order, Dropped accounting, trimming on late SetCap, and unbounding.
func TestSetCapRingSemantics(t *testing.T) {
	l := &Log{}
	l.SetCap(3)
	for i := 0; i < 7; i++ {
		l.Append(Record{At: simclock.Time(i), Kind: KindStart, Job: job.ID(int64(i)), User: "u"})
	}
	if l.Len() != 3 || l.Dropped() != 4 {
		t.Fatalf("Len=%d Dropped=%d, want 3/4", l.Len(), l.Dropped())
	}
	ev := l.Events()
	for i, want := range []int64{4, 5, 6} {
		if int64(ev[i].Job) != want {
			t.Errorf("event %d = job %d, want %d (newest kept, oldest-first order)", i, ev[i].Job, want)
		}
	}
	// Exporters see the linearized ring.
	var buf bytes.Buffer
	if err := l.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, _ := csv.NewReader(&buf).ReadAll()
	if len(rows) != 4 || rows[1][2] != "4" {
		t.Errorf("capped CSV export rows = %v", rows)
	}

	// Late SetCap trims the oldest immediately.
	l2 := &Log{}
	for i := 0; i < 5; i++ {
		l2.Append(Record{At: simclock.Time(i), Kind: KindStart, Job: job.ID(int64(i)), User: "u"})
	}
	l2.SetCap(2)
	if l2.Len() != 2 || l2.Dropped() != 3 {
		t.Fatalf("late cap: Len=%d Dropped=%d, want 2/3", l2.Len(), l2.Dropped())
	}
	if ev := l2.Events(); int64(ev[0].Job) != 3 || int64(ev[1].Job) != 4 {
		t.Errorf("late cap kept %+v", ev)
	}

	// Unbounding keeps contents and stops evicting.
	l2.SetCap(0)
	for i := 5; i < 10; i++ {
		l2.Append(Record{At: simclock.Time(i), Kind: KindStart, Job: job.ID(int64(i)), User: "u"})
	}
	if l2.Len() != 7 || l2.Dropped() != 3 {
		t.Errorf("after unbound: Len=%d Dropped=%d, want 7/3", l2.Len(), l2.Dropped())
	}
}

// FuzzReadTrace feeds both decoders arbitrary bytes: an error is fine,
// a panic is not, and whatever decodes must survive re-export. Seeded
// with an export of every kind.
func FuzzReadTrace(f *testing.F) {
	l := &Log{}
	for _, k := range everyKind {
		l.Append(k.rec)
	}
	var cbuf, jbuf bytes.Buffer
	if err := l.WriteCSV(&cbuf); err != nil {
		f.Fatal(err)
	}
	if err := l.WriteJSON(&jbuf); err != nil {
		f.Fatal(err)
	}
	f.Add(cbuf.Bytes())
	f.Add(jbuf.Bytes())
	f.Add([]byte("at_seconds,kind,job,user,detail\nNaN,,-1,\"\",\n"))
	f.Add([]byte(`[{"at":1e999}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if events, err := ReadCSV(bytes.NewReader(data)); err == nil {
			if err := WriteCSV(io.Discard, events); err != nil {
				t.Errorf("decoded CSV does not re-export: %v", err)
			}
		}
		if events, err := ReadJSON(bytes.NewReader(data)); err == nil {
			if err := WriteJSON(io.Discard, events); err != nil {
				t.Errorf("decoded JSON does not re-export: %v", err)
			}
		}
	})
}
