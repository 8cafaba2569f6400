package core

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"runtime"
	"testing"

	"repro/internal/job"
	"repro/internal/profiler"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// strandScenario is a deterministic two-user debt generator: alice and
// bob each pin one gang-2 job to their own 2-GPU server (migration
// disabled), and declared outages strand them. There is no fault model
// (Faults nil, the zero model): the engine keeps the compensation books
// regardless. DisableCompensation on the policy freezes the books so
// the accrual itself can be asserted exactly.
func strandScenario(aliceHours float64, failures []Failure) Config {
	specs := workload.BatchJobs("alice", zoo.MustGet("lstm"), 1, 2, aliceHours)
	specs = append(specs, workload.BatchJobs("bob", zoo.MustGet("gru"), 1, 2, 1e6)...)
	specs, _ = workload.AssignIDs(specs)
	return Config{
		Cluster:          k80Cluster(2, 2),
		Specs:            specs,
		Seed:             3,
		DisableMigration: true,
		Failures:         failures,
	}
}

// TestDepartureMidDrainForgivesDebt pins the departure-forgiveness
// path of settleCompensation: a user whose jobs have all left the
// system must have their outstanding compensation debt forgiven — not
// carried forever, where it would poison the monotone-drain audit for
// a later user of the same name — and the strict auditor must accept
// every round of the bookkeeping on the way.
func TestDepartureMidDrainForgivesDebt(t *testing.T) {
	outage := []Failure{{Server: 0, At: simclock.Time(simclock.Hour), Duration: simclock.Hour}}

	// Horizon inside the outage: alice is mid-strand, debt open. (Her
	// job is sized to outlive the outage start but finish well before
	// the full horizon: 4 standalone-K80 hours across a gang of 2.)
	mid := runFair(t, strandScenario(4, outage),
		FairConfig{DisableCompensation: true}, simclock.Time(1.5*simclock.Hour))
	if !mid.Audit.Clean() {
		t.Fatalf("audit: %s", mid.Audit.Summary())
	}
	if d := mid.CompDeficitByUser["alice"]; d <= 0 {
		t.Fatalf("stranded alice accrued no debt (deficit %v)", d)
	}

	// Full horizon: alice's job finishes after the server recovers and
	// she departs mid-drain (the policy never repays here). Her debt
	// must be forgiven, bob's books untouched.
	end := runFair(t, strandScenario(4, outage),
		FairConfig{DisableCompensation: true}, simclock.Time(simclock.Day))
	if !end.Audit.Clean() {
		t.Fatalf("audit: %s", end.Audit.Summary())
	}
	if len(end.Finished) != 1 || end.Finished[0].User != "alice" {
		t.Fatalf("alice's job did not finish: %d finished", len(end.Finished))
	}
	if d, ok := end.CompDeficitByUser["alice"]; ok {
		t.Errorf("departed alice still owed %v GPU-s; want entry forgiven", d)
	}
	if end.CompRepaidGPUSeconds != 0 {
		t.Errorf("uncompensated run repaid %v GPU-s", end.CompRepaidGPUSeconds)
	}
}

// TestZeroCapacityFreezesBooks drives the cluster's capacity to zero
// (every server down) with debt already on the books. With no capacity
// there is no fair entitlement, so the blackout rounds must neither
// accrue new debt (the loss cap is the share shortfall, which is zero)
// nor drain any (no occupancy can materialize) — the books are frozen
// bit for bit, whether or not the policy is compensating, and the
// strict auditor stays clean throughout.
func TestZeroCapacityFreezesBooks(t *testing.T) {
	failures := []Failure{
		// Phase 1: strand alice only — her debt accrues.
		{Server: 0, At: simclock.Time(simclock.Hour), Duration: simclock.Hour},
		// Phase 2: total blackout.
		{Server: 0, At: simclock.Time(3 * simclock.Hour), Duration: simclock.Hour},
		{Server: 1, At: simclock.Time(3 * simclock.Hour), Duration: simclock.Hour},
	}
	for _, fc := range []FairConfig{{DisableCompensation: true}, {}} {
		pre := runFair(t, strandScenario(1e6, failures), fc, simclock.Time(3*simclock.Hour))
		post := runFair(t, strandScenario(1e6, failures), fc, simclock.Time(4*simclock.Hour))
		for _, r := range []*Result{pre, post} {
			if !r.Audit.Clean() {
				t.Fatalf("audit (comp=%v): %s", !fc.DisableCompensation, r.Audit.Summary())
			}
		}
		if d := pre.CompDeficitByUser["alice"]; d <= 0 {
			t.Fatalf("no debt on the books before the blackout (comp=%v)", !fc.DisableCompensation)
		}
		users := make(map[string]bool)
		for u := range pre.CompDeficitByUser {
			users[string(u)] = true
		}
		for u := range post.CompDeficitByUser {
			users[string(u)] = true
		}
		for u := range users {
			before := pre.CompDeficitByUser[job.UserID(u)]
			after := post.CompDeficitByUser[job.UserID(u)]
			if math.Abs(before-after) > 1e-9 {
				t.Errorf("blackout moved user %s's deficit: %v -> %v (comp=%v)",
					u, before, after, !fc.DisableCompensation)
			}
		}
		if math.Abs(pre.CompRepaidGPUSeconds-post.CompRepaidGPUSeconds) > 1e-9 {
			t.Errorf("blackout drained debt: repaid %v -> %v (comp=%v)",
				pre.CompRepaidGPUSeconds, post.CompRepaidGPUSeconds, !fc.DisableCompensation)
		}
	}
}

// TestCompensationRoundBytesIndependentOfJobs pins the compensation
// books as per-user records: with a debt open — a server down for good,
// its jobs stranded there by the no-migration mode, compensation off so
// nothing is ever repaid — settling a round costs the same whether a
// user has ten jobs waiting or a hundred. Ten users on one 80-GPU
// generation, gang-4 jobs that never finish, so 19 jobs are scheduled a
// round at either size; what a waiting job may cost per round is its
// slot in the decision's request buffer and in the stride orders. That
// measures 43 B per additional job; the presence map the forgiveness
// check used to build, sized by active jobs, made it 111 B.
func TestCompensationRoundBytesIndependentOfJobs(t *testing.T) {
	perRound := func(jobsPerUser int) float64 {
		var specs []job.Spec
		for u := 0; u < 10; u++ {
			specs = append(specs, workload.BatchJobs(job.UserID(fmt.Sprintf("user%02d", u)), zoo.MustGet("lstm"), jobsPerUser, 4, 1e6)...)
		}
		specs, _ = workload.AssignIDs(specs)
		s, err := New(Config{
			Cluster: k80Cluster(20, 4), Specs: specs, Seed: 3,
			DisableMigration: true,
			Failures:         []Failure{{Server: 0, At: simclock.Time(simclock.Hour), Duration: 1e9}},
		}, MustNewFairPolicy(FairConfig{DisableCompensation: true}))
		if err != nil {
			t.Fatal(err)
		}
		step := func() {
			s.admitArrivals()
			if err := s.runRound(); err != nil {
				t.Fatal(err)
			}
			s.clock.RunUntil(s.clock.Now().Add(s.cfg.Quantum))
		}
		for i := 0; i < 40; i++ {
			step()
		}
		if len(s.resultDeficit()) == 0 {
			t.Fatalf("%d jobs a user: no debt open after 40 rounds, the books are not exercised", jobsPerUser)
		}
		const rounds = 8
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			step()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / rounds
	}
	few, many := perRound(10), perRound(100)
	perJob := (many - few) / (10 * (100 - 10))
	t.Logf("faulty round with a debt open: %.0f B at 100 jobs, %.0f B at 1,000: %.1f B per additional job", few, many, perJob)
	if perJob > 64 {
		t.Errorf("a waiting job costs %.1f B a round, ceiling 64", perJob)
	}
}

// TestUnreachableChargesLikeDeclaredFailure holds the compensation books
// to one rule for capacity that disappears: server 0 unreachable over
// rounds [a, b) — what distrib.Central reports for an agent that stopped
// answering — must strand alice exactly as a declared failure over the
// same window does: the same usage, fair usage, outstanding debt and
// repayment, bit for bit.
func TestUnreachableChargesLikeDeclaredFailure(t *testing.T) {
	const a, b, rounds = 10, 20, 40
	q := Config{}.withDefaults().Quantum
	outage := []Failure{{Server: 0, At: simclock.Time((a - 1) * q), Duration: (b - a) * q}}
	run := func(cfg Config, unreachable bool) *Result {
		t.Helper()
		s, err := New(cfg, MustNewFairPolicy(FairConfig{}))
		if err != nil {
			t.Fatal(err)
		}
		for s.Rounds() < rounds {
			if unreachable {
				switch s.Rounds() + 1 {
				case a:
					s.SetUnreachable(servers(0))
				case b:
					s.SetUnreachable(nil)
				}
			}
			if ran, err := s.Step(simclock.Time(simclock.Day)); err != nil || !ran {
				t.Fatalf("round %d: ran %v, %v", s.Rounds()+1, ran, err)
			}
		}
		res := s.Result()
		if !res.Audit.Clean() {
			t.Fatalf("audit (unreachable=%v): %s", unreachable, res.Audit.Summary())
		}
		return res
	}
	want := run(strandScenario(1e6, outage), false)
	got := run(strandScenario(1e6, nil), true)
	if want.CompDeficitByUser["alice"] <= 0 {
		t.Fatalf("fixture: the declared outage charged alice nothing (deficit %v)", want.CompDeficitByUser)
	}
	if w, g := want.TotalUsageByUser(), got.TotalUsageByUser(); !maps.Equal(w, g) {
		t.Errorf("usage: unreachable %v, declared %v", g, w)
	}
	if !maps.Equal(want.FairUsageByUser, got.FairUsageByUser) {
		t.Errorf("fair usage: unreachable %v, declared %v", got.FairUsageByUser, want.FairUsageByUser)
	}
	if !maps.Equal(want.CompDeficitByUser, got.CompDeficitByUser) {
		t.Errorf("deficit: unreachable %v, declared %v", got.CompDeficitByUser, want.CompDeficitByUser)
	}
	if want.CompRepaidGPUSeconds != got.CompRepaidGPUSeconds {
		t.Errorf("repaid: unreachable %v, declared %v", got.CompRepaidGPUSeconds, want.CompRepaidGPUSeconds)
	}
}

// TestCheckpointCarriesCompensationDebt strands alice until she owes,
// checkpoints the engine, sends the checkpoint through JSON and restores
// it: the restored engine owes what the original did and settles its
// next round clean under the strict auditor. A debt book no engine
// writes — an unknown user, a negative, NaN or infinite debt — is
// refused with no engine.
func TestCheckpointCarriesCompensationDebt(t *testing.T) {
	cfg := strandScenario(1e6, []Failure{{Server: 0, At: simclock.Time(simclock.Hour), Duration: simclock.Day}})
	fc := FairConfig{DisableCompensation: true}
	s, err := New(cfg, MustNewFairPolicy(fc))
	if err != nil {
		t.Fatal(err)
	}
	for s.Rounds() < 15 {
		if _, err := s.Step(simclock.Time(simclock.Day)); err != nil {
			t.Fatal(err)
		}
	}
	want := s.Result().CompDeficitByUser
	if want["alice"] <= 0 {
		t.Fatalf("fixture: alice owes nothing after the outage started (%v)", want)
	}
	buf, err := json.Marshal(s.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	var cp Checkpoint
	if err := json.Unmarshal(buf, &cp); err != nil {
		t.Fatal(err)
	}
	restore := func(cp *Checkpoint) (*Sim, error) {
		return Restore(cfg, MustNewFairPolicy(fc), LocalExecutor{}, profiler.MustNew(0, 1), cp)
	}
	r, err := restore(&cp)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Result().CompDeficitByUser; !maps.Equal(got, want) {
		t.Fatalf("restored deficit %v, checkpointed %v", got, want)
	}
	if _, err := r.Step(simclock.Time(simclock.Day)); err != nil {
		t.Fatalf("first round after Restore: %v", err)
	}
	if d := r.Result().CompDeficitByUser["alice"]; d < want["alice"] {
		t.Errorf("alice's debt fell from %v to %v with compensation off", want["alice"], d)
	}

	for _, tc := range []struct {
		name string
		user job.UserID
		debt float64
	}{
		{"debt of an unknown user", "ghost", 1},
		{"negative debt", "alice", -1},
		{"NaN debt", "bob", math.NaN()},
		{"infinite debt", "alice", math.Inf(1)},
	} {
		bad := cp
		bad.CompDebt = maps.Clone(cp.CompDebt)
		bad.CompDebt[tc.user] = tc.debt
		if s, err := restore(&bad); err == nil || s != nil {
			t.Errorf("%s: Restore returned engine %v, error %v; want an error and no engine", tc.name, s != nil, err)
		}
	}
}
