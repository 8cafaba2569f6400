package flight

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Rounds returns the retained snapshots oldest-first.
func (r *Recorder) Rounds() []obs.RoundSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rounds.Slice()
}

func snap(round int) obs.RoundSnapshot {
	return obs.RoundSnapshot{
		Round: round, SimAt: float64(round) * 360,
		Events: []obs.RoundEvent{{Kind: "fault", Name: "jobcrash"}},
		Shares: []obs.ShareSample{{User: "alice", Usage: 0.5, Fair: 0.5}},
	}
}

func TestRingKeepsLastN(t *testing.T) {
	r := New(3, filepath.Join(t.TempDir(), "flight.json"))
	for i := 0; i < 5; i++ {
		r.RecordRound(snap(i))
	}
	rounds := r.Rounds()
	if len(rounds) != 3 {
		t.Fatalf("retained %d rounds, want 3", len(rounds))
	}
	if rounds[0].Round != 2 || rounds[2].Round != 4 {
		t.Fatalf("window = %d..%d, want 2..4", rounds[0].Round, rounds[2].Round)
	}
}

func TestDumpAtomicAndParseable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.json")
	r := New(8, path)
	r.RecordRound(snap(0))
	r.RecordRound(snap(1))
	if err := r.Dump("audit-violation", "round 1: capacity: 9 > 8"); err != nil {
		t.Fatal(err)
	}
	d, err := ReadDump(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Reason != "audit-violation" || d.Detail == "" {
		t.Fatalf("dump header = %+v", d)
	}
	if len(d.Rounds) != 2 || d.Rounds[1].Round != 1 {
		t.Fatalf("dump rounds = %+v", d.Rounds)
	}
	if d.Rounds[0].Events[0].Name != "jobcrash" {
		t.Fatalf("events lost: %+v", d.Rounds[0])
	}
	if d.WrittenAt == "" {
		t.Fatal("missing timestamp")
	}
	// No temp files left behind.
	entries, _ := os.ReadDir(filepath.Dir(path))
	for _, e := range entries {
		if e.Name() != "flight.json" {
			t.Fatalf("leftover file %s", e.Name())
		}
	}
}

func TestEmptyDump(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.json")
	if err := New(4, path).Dump("manual", ""); err != nil {
		t.Fatal(err)
	}
	d, err := ReadDump(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Rounds == nil || len(d.Rounds) != 0 {
		t.Fatalf("empty dump rounds = %#v, want []", d.Rounds)
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.RecordRound(snap(0))
	if err := r.Dump("manual", ""); err != nil {
		t.Fatal(err)
	}
	if r.Rounds() != nil || r.Path() != "" {
		t.Fatal("nil recorder leaked state")
	}
}

func TestObserverSinkIntegration(t *testing.T) {
	r := New(4, filepath.Join(t.TempDir(), "flight.json"))
	o := obs.New()
	o.SetSink(r)
	o.Emit(trace.Record{Kind: trace.KindNet, Name: "drop"}) // between rounds: joins the next snapshot
	o.BeginRound(0, 0)
	o.EndRound(obs.Round{
		Active: 1,
		Events: []trace.Record{
			{Kind: trace.KindJobCrash, Job: 1, User: "bob"},
			{Kind: trace.KindDecision, Job: 1, User: "bob", Gen: gpu.V100, N: 1, Devs: []gpu.DeviceID{0}, Name: "policy"},
		},
		Shares: []obs.ShareSample{{User: "bob", Usage: 0.4, Fair: 0.5}},
	})

	rounds := r.Rounds()
	if len(rounds) != 1 {
		t.Fatalf("sink got %d rounds", len(rounds))
	}
	got := rounds[0]
	if len(got.Decisions) != 1 || got.Decisions[0].User != "bob" {
		t.Fatalf("decisions = %+v", got.Decisions)
	}
	want := []obs.RoundEvent{{Kind: "net", Name: "drop"}, {Kind: "fault", Name: "job-crash"}}
	if !reflect.DeepEqual(got.Events, want) {
		t.Fatalf("events = %+v, want %+v", got.Events, want)
	}
	if len(got.Shares) != 1 || got.Shares[0].User != "bob" {
		t.Fatalf("shares = %+v", got.Shares)
	}
}

func TestServeHTTP(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.json")
	r := New(4, path)
	r.RecordRound(snap(3))

	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flight", nil))
	var body struct {
		Rounds []obs.RoundSnapshot `json:"rounds"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(body.Rounds) != 1 || body.Rounds[0].Round != 3 {
		t.Fatalf("http rounds = %+v", body.Rounds)
	}

	// ?save=1 triggers a dump.
	r.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/debug/flight?save=1", nil))
	if _, err := ReadDump(path); err != nil {
		t.Fatalf("save=1 produced no parseable dump: %v", err)
	}

	// Nil recorder responds 503, not panic.
	rec = httptest.NewRecorder()
	(*Recorder)(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flight", nil))
	if rec.Code != 503 {
		t.Fatalf("nil recorder status = %d", rec.Code)
	}
}

func TestConcurrentRecordAndDump(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.json")
	r := New(16, path)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r.RecordRound(snap(g*50 + i))
				if i%10 == 0 {
					if err := r.Dump("manual", ""); err != nil {
						t.Error(err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if _, err := ReadDump(path); err != nil {
		t.Fatal(err)
	}
}

// FuzzReadDump feeds ReadDump arbitrary file contents: an error is
// fine, a panic is not. Seeded with a dump holding every event class.
func FuzzReadDump(f *testing.F) {
	seed := filepath.Join(f.TempDir(), "seed.json")
	r := New(4, seed)
	s := snap(1)
	s.Events = []obs.RoundEvent{{Kind: "fault", Name: "job-crash"}, {Kind: "net", Name: "drop"}, {Kind: "protocol", Name: "plan_sent"}}
	s.Decisions = []obs.Decision{{Round: 1, Job: 1, User: "alice", Gen: "V100", Gang: 1, Devices: []int{0}, Reason: "credit", Migrated: true, FromGen: "K80"}}
	s.Trades = []obs.TradeEvent{{Round: 1, Buyer: "alice", Seller: "bob", Fast: "V100", Slow: "K80", Price: 1.5}}
	s.Phases = map[string]float64{"decide": 1e-4}
	r.RecordRound(s)
	if err := r.Dump("manual", ""); err != nil {
		f.Fatal(err)
	}
	b, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	f.Add([]byte(`{"rounds":[{"round":"x"}]}`))
	f.Add([]byte(`{"rounds":null,"rounds_dropped":-1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "flight.json")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		if d, err := ReadDump(path); err == nil && d == nil {
			t.Error("ReadDump returned neither a dump nor an error")
		}
	})
}
