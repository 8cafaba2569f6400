package faults

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/gpu"
	"repro/internal/simclock"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{
		ServerMTBFHours:   24,
		FlakyServers:      2,
		DegradeMTBFHours:  48,
		JobCrashMTBFHours: 12,
	}
	a, err := Generate(cfg, 8, simclock.Time(7*simclock.Day), 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg, 8, simclock.Time(7*simclock.Day), 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	c, err := Generate(cfg, 8, simclock.Time(7*simclock.Day), 43)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules (suspicious)")
	}
	if len(a.Outages) == 0 {
		t.Fatal("expected some outages over a week at 24h MTBF")
	}
	for i := 1; i < len(a.Outages); i++ {
		p, q := a.Outages[i-1], a.Outages[i]
		if q.At < p.At || (q.At == p.At && q.Server < p.Server) {
			t.Fatalf("outages not sorted at %d", i)
		}
	}
	for _, o := range a.Outages {
		if o.Duration < cfg.WithDefaults().MinOutageSecs {
			t.Fatalf("outage shorter than MinOutageSecs: %v", o.Duration)
		}
		if o.Kind != OutageCrash && o.Kind != OutageFlaky {
			t.Fatalf("unexpected kind %q", o.Kind)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{MigrationFailProb: 2}, 4, simclock.Time(simclock.Day), 1); err == nil {
		t.Fatal("want error for MigrationFailProb > 1")
	}
	if _, err := Generate(Config{ServerMTBFHours: -1}, 4, simclock.Time(simclock.Day), 1); err == nil {
		t.Fatal("want error for negative MTBF")
	}
	if _, err := Generate(Config{}, 0, simclock.Time(simclock.Day), 1); err == nil {
		t.Fatal("want error for zero servers")
	}
	if _, err := Generate(Config{}, 4, 0, 1); err == nil {
		t.Fatal("want error for zero horizon")
	}
}

func TestTimelineMerge(t *testing.T) {
	out := []Outage{
		{Server: 0, At: 100, Duration: 50},
		{Server: 0, At: 120, Duration: 100}, // overlaps previous
		{Server: 0, At: 500, Duration: 10},
		{Server: 1, At: 0, Duration: 10},
	}
	tl := Compile(out, nil, 2)
	if got := len(tl.down[0]); got != 2 {
		t.Fatalf("server 0: want 2 merged spans, got %d: %+v", got, tl.down[0])
	}
	if sp := tl.down[0][0]; sp.From != 100 || sp.To != 220 {
		t.Fatalf("merged span wrong: %+v", sp)
	}
	if !tl.DownAt(0, 150) || tl.DownAt(0, 220) || !tl.DownAt(0, 505) {
		t.Fatal("DownAt lookup wrong")
	}
	if !tl.DownAt(1, 0) || tl.DownAt(1, 10) {
		t.Fatal("half-open interval semantics violated")
	}
	if tl.DownAt(7, 0) { // unknown server
		t.Fatal("unknown server reported down")
	}
}

func TestTimelineDegradationFlatten(t *testing.T) {
	degs := []Degradation{
		{Server: 0, At: 0, Duration: 100, Factor: 0.8},
		{Server: 0, At: 50, Duration: 100, Factor: 0.5}, // overlap: min wins
	}
	tl := Compile(nil, degs, 1)
	if f := tl.FactorAt(0, 25); f != 0.8 {
		t.Fatalf("FactorAt(25) = %v, want 0.8", f)
	}
	if f := tl.FactorAt(0, 75); f != 0.5 {
		t.Fatalf("FactorAt(75) = %v, want 0.5 (min over overlap)", f)
	}
	if f := tl.FactorAt(0, 125); f != 0.5 {
		t.Fatalf("FactorAt(125) = %v, want 0.5", f)
	}
	if f := tl.FactorAt(0, 200); f != 1 {
		t.Fatalf("FactorAt(200) = %v, want 1", f)
	}
}

// TestSweepMatchesLookup cross-checks the monotone Sweep cursor against
// the stateless binary-search reference on a random schedule.
func TestSweepMatchesLookup(t *testing.T) {
	cfg := Config{ServerMTBFHours: 6, ServerOutageMeanHours: 0.5, DegradeMTBFHours: 8, DegradeMeanHours: 1}
	sched, err := Generate(cfg, 6, simclock.Time(3*simclock.Day), 7)
	if err != nil {
		t.Fatal(err)
	}
	tl := Compile(sched.Outages, sched.Degradations, 6)
	sw := NewSweep(tl)
	quantum := 360.0
	for now := simclock.Time(0); now < simclock.Time(3*simclock.Day); now = now.Add(quantum) {
		sw.Advance(now)
		for s := 0; s < 6; s++ {
			sid := gpu.ServerID(s)
			if sw.Down().Has(sid) != tl.DownAt(sid, now) {
				t.Fatalf("t=%v server %d: sweep down=%v lookup=%v", now, s, sw.Down().Has(sid), tl.DownAt(sid, now))
			}
			if sw.Factor(sid) != tl.FactorAt(sid, now) {
				t.Fatalf("t=%v server %d: sweep factor=%v lookup=%v", now, s, sw.Factor(sid), tl.FactorAt(sid, now))
			}
		}
	}
}

func TestSweepTransitions(t *testing.T) {
	out := []Outage{{Server: 1, At: 100, Duration: 200}}
	degs := []Degradation{{Server: 0, At: 150, Duration: 100, Factor: 0.5}}
	tl := Compile(out, degs, 2)
	sw := NewSweep(tl)
	if tr := sw.Advance(0); len(tr) != 0 {
		t.Fatalf("t=0: unexpected transitions %+v", tr)
	}
	tr := sw.Advance(150)
	want := []Transition{
		{Server: 0, Slow: true, Factor: 0.5},
		{Server: 1, Down: true},
	}
	if !reflect.DeepEqual(tr, want) {
		t.Fatalf("t=150 transitions = %+v, want %+v", tr, want)
	}
	tr = sw.Advance(300)
	want = []Transition{
		{Server: 0, Slow: true, Factor: 1},
		{Server: 1, Down: false},
	}
	if !reflect.DeepEqual(tr, want) {
		t.Fatalf("t=300 transitions = %+v, want %+v", tr, want)
	}
}

func TestBreakerStateMachine(t *testing.T) {
	b := NewBreaker(Config{QuarantineFailures: 3, QuarantineWindowHours: 1, QuarantineCooloffHours: 2})
	now := simclock.Time(0)
	if b.NoteFailure(5, now) || b.NoteFailure(5, now.Add(60)) {
		t.Fatal("tripped before k failures")
	}
	if !b.NoteFailure(5, now.Add(120)) {
		t.Fatal("did not trip on k-th failure within window")
	}
	if !b.Set().Has(5) || b.Set().Len() != 1 {
		t.Fatal("quarantine state wrong after trip")
	}
	// Failures while quarantined are dropped.
	if b.NoteFailure(5, now.Add(180)) {
		t.Fatal("re-tripped while already quarantined")
	}
	// Not expired before cool-off.
	if freed := b.ExpireStep(now.Add(120 + 2*simclock.Hour - 1)); len(freed) != 0 {
		t.Fatalf("expired early: %v", freed)
	}
	freed := b.ExpireStep(now.Add(120 + 2*simclock.Hour))
	if len(freed) != 1 || freed[0] != 5 {
		t.Fatalf("ExpireStep = %v, want [5]", freed)
	}
	if b.Set().Has(5) || b.Set().Len() != 0 {
		t.Fatal("still quarantined after expiry")
	}
	// History cleared on trip: needs k fresh failures to trip again.
	if b.NoteFailure(5, now.Add(3*simclock.Hour)) {
		t.Fatal("tripped from stale history")
	}
}

func TestBreakerWindowSlides(t *testing.T) {
	b := NewBreaker(Config{QuarantineFailures: 2, QuarantineWindowHours: 1})
	if b.NoteFailure(0, 0) {
		t.Fatal("tripped on first failure")
	}
	// Second failure outside the window: no trip.
	if b.NoteFailure(0, simclock.Time(2*simclock.Hour)) {
		t.Fatal("tripped across expired window")
	}
	// Third failure within window of the second: trip.
	if !b.NoteFailure(0, simclock.Time(2*simclock.Hour+100)) {
		t.Fatal("did not trip within window")
	}
}

func TestBreakerDisabled(t *testing.T) {
	b := NewBreaker(Config{})
	for i := 0; i < 10; i++ {
		if b.NoteFailure(1, simclock.Time(i)) {
			t.Fatal("disabled breaker tripped")
		}
	}
	if b.Set().Len() != 0 {
		t.Fatal("disabled breaker has quarantine set")
	}
}

func TestInjectorDeterministicAndDisabled(t *testing.T) {
	cfg := Config{JobCrashMTBFHours: 10, MigrationFailProb: 0.3}
	a := NewInjector(cfg, 360, 99)
	b := NewInjector(cfg, 360, 99)
	for i := 0; i < 1000; i++ {
		if a.CrashNow() != b.CrashNow() || a.MigrationFails() != b.MigrationFails() {
			t.Fatalf("divergence at draw %d", i)
		}
	}
	off := NewInjector(Config{}, 360, 1)
	for i := 0; i < 100; i++ {
		if off.CrashNow() || off.MigrationFails() {
			t.Fatal("disabled injector fired")
		}
	}
}

func TestInjectorCrashRate(t *testing.T) {
	// MTBF 1h, quantum 360s → p = 1-exp(-0.1) ≈ 0.0952. Check the
	// empirical rate lands in a loose band.
	in := NewInjector(Config{JobCrashMTBFHours: 1}, 360, 7)
	n, hits := 200000, 0
	for i := 0; i < n; i++ {
		if in.CrashNow() {
			hits++
		}
	}
	rate := float64(hits) / float64(n)
	if rate < 0.085 || rate > 0.105 {
		t.Fatalf("crash rate %v far from expected 0.0952", rate)
	}
}

func TestBackoff(t *testing.T) {
	cfg := Config{MigrationBackoffRounds: 2, MigrationBackoffCapRounds: 16}
	want := []int{2, 4, 8, 16, 16, 16}
	for i, w := range want {
		if got := Backoff(cfg, i+1); got != w {
			t.Fatalf("Backoff(%d) = %d, want %d", i+1, got, w)
		}
	}
	if Backoff(cfg, 0) != 0 {
		t.Fatal("Backoff(0) should be 0")
	}
}

// naiveDown reproduces the engine's old per-round behavior: rescan the
// raw outage list and allocate a fresh map every quantum. Kept as the
// benchmark baseline for the compiled timeline.
func naiveDown(outages []Outage, t simclock.Time) map[gpu.ServerID]bool {
	down := make(map[gpu.ServerID]bool)
	for _, o := range outages {
		if o.At <= t && t < o.At.Add(o.Duration) {
			down[o.Server] = true
		}
	}
	return down
}

func benchSchedule(b *testing.B) (*Schedule, int) {
	b.Helper()
	numServers := 64
	sched, err := Generate(Config{ServerMTBFHours: 12, FlakyServers: 8}, numServers, simclock.Time(30*simclock.Day), 1)
	if err != nil {
		b.Fatal(err)
	}
	return sched, numServers
}

func BenchmarkDownRescan(b *testing.B) {
	sched, numServers := benchSchedule(b)
	quantum := 360.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sink int
		for now := simclock.Time(0); now < simclock.Time(30*simclock.Day); now = now.Add(quantum) {
			down := naiveDown(sched.Outages, now)
			sink += len(down)
		}
		_ = sink
		_ = numServers
	}
}

func BenchmarkTimelineSweep(b *testing.B) {
	sched, numServers := benchSchedule(b)
	tl := Compile(sched.Outages, sched.Degradations, numServers)
	quantum := 360.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw := NewSweep(tl)
		var sink int
		for now := simclock.Time(0); now < simclock.Time(30*simclock.Day); now = now.Add(quantum) {
			sink += len(sw.Advance(now))
		}
		_ = sink
	}
}

// TestSweepReferenceRandomized hammers the sweep against the reference
// lookup with random schedules.
func TestSweepReferenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(5)
		var outs []Outage
		var degs []Degradation
		for i := 0; i < rng.Intn(20); i++ {
			outs = append(outs, Outage{
				Server:   gpu.ServerID(rng.Intn(n)),
				At:       simclock.Time(rng.Float64() * 10000),
				Duration: 1 + rng.Float64()*3000,
			})
		}
		for i := 0; i < rng.Intn(10); i++ {
			degs = append(degs, Degradation{
				Server:   gpu.ServerID(rng.Intn(n)),
				At:       simclock.Time(rng.Float64() * 10000),
				Duration: 1 + rng.Float64()*3000,
				Factor:   0.25 + rng.Float64()*0.5,
			})
		}
		tl := Compile(outs, degs, n)
		sw := NewSweep(tl)
		for now := simclock.Time(0); now < 12000; now = now.Add(97) {
			sw.Advance(now)
			for s := 0; s < n; s++ {
				sid := gpu.ServerID(s)
				if sw.Down().Has(sid) != tl.DownAt(sid, now) {
					t.Fatalf("trial %d t=%v server %d down mismatch", trial, now, s)
				}
				if sw.Factor(sid) != tl.FactorAt(sid, now) {
					t.Fatalf("trial %d t=%v server %d factor mismatch", trial, now, s)
				}
			}
		}
	}
}

// TestSweepTransitionsMatchRescanOracle pins the event-driven Advance
// to the old all-server rescan semantics: the transition stream must
// equal a per-sample diff of every server's looked-up state, in
// server-ID order with the down transition before the degradation
// transition per server.
func TestSweepTransitionsMatchRescanOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(6)
		var outs []Outage
		var degs []Degradation
		for i := 0; i < rng.Intn(15); i++ {
			outs = append(outs, Outage{
				Server:   gpu.ServerID(rng.Intn(n)),
				At:       simclock.Time(rng.Float64() * 8000),
				Duration: 1 + rng.Float64()*2500,
			})
		}
		for i := 0; i < rng.Intn(8); i++ {
			degs = append(degs, Degradation{
				Server:   gpu.ServerID(rng.Intn(n)),
				At:       simclock.Time(rng.Float64() * 8000),
				Duration: 1 + rng.Float64()*2500,
				Factor:   0.25 + rng.Float64()*0.5,
			})
		}
		tl := Compile(outs, degs, n)
		sw := NewSweep(tl)
		prevDown := make([]bool, n)
		prevFactor := make([]float64, n)
		for i := range prevFactor {
			prevFactor[i] = 1
		}
		for now := simclock.Time(0); now < 11000; now = now.Add(113) {
			got := sw.Advance(now)
			var want []Transition
			for s := 0; s < n; s++ {
				sid := gpu.ServerID(s)
				if d := tl.DownAt(sid, now); d != prevDown[s] {
					prevDown[s] = d
					want = append(want, Transition{Server: sid, Down: d})
				}
				if f := tl.FactorAt(sid, now); f != prevFactor[s] {
					prevFactor[s] = f
					want = append(want, Transition{Server: sid, Slow: true, Factor: f})
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d t=%v: transitions %+v, want %+v", trial, now, got, want)
			}
		}
	}
}
