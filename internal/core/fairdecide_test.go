package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fairshare"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// TestFairOracleMatchesGolden runs the golden scenarios with the oracle
// (fairoracle_test.go) as the policy: its per-user books must hash to
// the digests the engine is held to, or the oracle is no oracle.
func TestFairOracleMatchesGolden(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     Config
		trading bool
		want    string
	}{
		{"churn", goldenChurnConfig(t), true, goldenChurnDigest},
		{"faulty", goldenFaultyConfig(t), false, goldenFaultyDigest},
	} {
		sim, err := New(tc.cfg, newOracleFair(FairConfig{EnableTrading: tc.trading}))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(simclock.Time(16 * simclock.Hour))
		if err != nil {
			t.Fatal(err)
		}
		if got := CanonicalDigest(res); got != tc.want {
			t.Errorf("%s: the oracle's digest is %s, the golden %s", tc.name, got, tc.want)
		}
	}
}

// fairTwin drives FairPolicy and its oracle through the same rounds:
// both decide on every RoundState, the policy's decision runs, and both
// are told what happened. It fails the test at the first round whose
// Decision differs, and counts what the rounds exercised into cov.
type fairTwin struct {
	t     *testing.T
	got   *FairPolicy
	want  *oracleFair
	label string

	cov      *fairCoverage
	round    int
	lastSeen map[job.UserID]int // the last round a user had a runnable job
	active   int                // the users with runnable jobs last round
}

// fairCoverage is what a corpus of runs exercised.
type fairCoverage struct {
	rounds    int
	returns   int // a user back with runnable jobs after rounds without any
	handoffs  int // rounds a user arrives or returns as another leaves
	repaying  int // rounds the policy repaid a debt
	trades    int
	noTickets int // rounds in which a runnable user held zero tickets
	dropped   int // rounds missing a generation from CapacityByGen
	pinned    int // rounds with a pinned runnable job
	contended int // rounds that left a runnable job out
	ties      int // rounds serving more than 12 users, two of them on equal credit

	trading, noTrading, noMigration, migration, hierarchical int // runs
}

func (w *fairTwin) Name() string { return w.got.Name() }

func (w *fairTwin) Decide(st *RoundState) Decision {
	w.round++
	w.cov.rounds++
	r := w.round
	if len(st.CapacityByGen()) < len(st.Cluster.GensPresent()) {
		w.cov.dropped++
	}
	zero, pinned, arrives := false, false, false
	stay, active := 0, 0 // of last round's users, and in all
	for _, j := range st.Jobs {
		if last, ok := w.lastSeen[j.User]; last != r {
			active++
			switch {
			case ok && last == r-1:
				stay++
			case ok:
				w.cov.returns++
				arrives = true
			default:
				arrives = true
			}
		}
		w.lastSeen[j.User] = r
		zero = zero || st.Tickets[j.User] == 0
		pinned = pinned || j.Pinned()
	}
	if zero {
		w.cov.noTickets++
	}
	if pinned {
		w.cov.pinned++
	}
	if arrives && stay < w.active {
		w.cov.handoffs++
	}
	w.active = active
	want := w.want.Decide(st)
	got := w.got.Decide(st)
	if !slices.Equal(got.Run, want.Run) {
		w.t.Fatalf("%s: round %d at t=%v: Run differs from the oracle's\n got %v\nwant %v",
			w.label, r, st.Now, requests(got), requests(want))
	}
	if !slices.Equal(got.Trades, want.Trades) {
		w.t.Fatalf("%s: round %d at t=%v: trades differ from the oracle's\n got %+v\nwant %+v",
			w.label, r, st.Now, got.Trades, want.Trades)
	}
	if got.Repays != want.Repays {
		w.t.Fatalf("%s: round %d at t=%v: Repays %v, the oracle's %v", w.label, r, st.Now, got.Repays, want.Repays)
	}
	if got.Repays {
		w.cov.repaying++
	}
	w.sameBooks(r)
	w.cov.trades += len(got.Trades)
	if len(got.Run) < len(st.Jobs) {
		w.cov.contended++
	}
	// More than 12: a serve sort that breaks ties by position only on
	// short inputs (slices.SortFunc sorts 12 or fewer by insertion, which
	// keeps ties in the order given) would pass below it.
	if a := w.got.serve; len(a) > 12 {
		for i := 1; i < len(a); i++ {
			if a[i].key == a[i-1].key {
				w.cov.ties++
				break
			}
		}
	}
	return got
}

// sameBooks holds the policy's books after a Decide to the oracle's,
// bit for bit: every active user's credit, and every runnable job's
// passes and whether it has joined each stride order. The oracle makes a
// user's books afresh when they return and drops a job's passes when it
// finishes, so a user who left and came back — or whose row another user
// held before — must start with fresh credit and passes here too.
func (w *fairTwin) sameBooks(r int) {
	for _, at := range w.got.active {
		u := &w.got.users[at]
		ou := w.want.users[u.id]
		if ou == nil || u.credit != ou.credit {
			w.t.Fatalf("%s: round %d: %s holds credit %v, the oracle's user %+v", w.label, r, u.id, u.credit, ou)
		}
		for _, slot := range w.got.lay[u.lo:u.hi] {
			js := &w.got.jobs[slot]
			userPass, userKnown := ou.sched.pass[js.id]
			fillPass, fillKnown := w.want.backfill.pass[js.id]
			if js.userKnown != userKnown || js.userPass != userPass || js.fillKnown != fillKnown || js.fillPass != fillPass {
				w.t.Fatalf("%s: round %d: job %d of %s has passes %v/%v (joined %v/%v), the oracle's %v/%v (%v/%v)", w.label, r, js.id, u.id,
					js.userPass, js.fillPass, js.userKnown, js.fillKnown, userPass, fillPass, userKnown, fillKnown)
			}
		}
	}
}

func (w *fairTwin) Executed(rep *ExecReport) {
	w.want.Executed(rep)
	w.got.Executed(rep)
}

func (w *fairTwin) JobFinished(id job.ID) {
	w.want.JobFinished(id)
	w.got.JobFinished(id)
}

func requests(d Decision) []string {
	s := make([]string, len(d.Run))
	for i, r := range d.Run {
		s[i] = fmt.Sprintf("%d@%v", r.Job.ID, r.Gen)
	}
	return s
}

// matchFairOracle runs FairPolicy against its oracle on one seeded
// random workload: a three-generation cluster whose only V100 server
// can go down (its generation then drops out of CapacityByGen), the
// full fault model (crashes, and migration failures that pin jobs), so
// users owe and are repaid, ticket changes (to zero too), trading,
// migrations and org-level tickets each on or off by seed, and users whose few short jobs
// arrive hours apart, so they leave the policy's books and come back.
// What the run exercised is added to cov.
func matchFairOracle(t *testing.T, seed int64, cov *fairCoverage) {
	rng := rand.New(rand.NewSource(seed))
	// K80 and P100 hold at least 4 GPUs each, the widest gang.
	cluster := gpu.MustNew(
		gpu.Spec{Gen: gpu.K80, Servers: 2 + rng.Intn(2), GPUsPerSrv: 2 + rng.Intn(3)},
		gpu.Spec{Gen: gpu.P100, Servers: 2 + rng.Intn(2), GPUsPerSrv: 2 + rng.Intn(3)},
		gpu.Spec{Gen: gpu.V100, Servers: 1, GPUsPerSrv: 2 + rng.Intn(3)},
	)
	zoo := workload.DefaultZoo()
	users := make([]job.UserID, 5+rng.Intn(16))
	var us []workload.UserSpec
	for i := range users {
		users[i] = job.UserID(fmt.Sprintf("u%02d", i))
		spec := workload.UserSpec{
			User: users[i], NumJobs: 10 + rng.Intn(20), ArrivalRatePerHour: float64(2 + rng.Intn(6)),
			MeanK80Hours: 1 + 3*rng.Float64(),
			GangDist:     []workload.GangWeight{{Gang: 1, Weight: 0.6}, {Gang: 2, Weight: 0.3}, {Gang: 4, Weight: 0.1}},
		}
		if i%3 == 2 { // comes and goes: a few short jobs, hours apart
			spec.NumJobs, spec.ArrivalRatePerHour, spec.MeanK80Hours = 4+rng.Intn(4), 0.2+0.3*rng.Float64(), 0.3
		}
		us = append(us, spec)
	}
	specs := workload.MustGenerate(zoo, workload.Config{Seed: seed, Users: us, MaxK80Hours: 4})
	dealOutOfOrder(specs, seed)
	var changes []TicketChange
	for range 1 + rng.Intn(4) {
		changes = append(changes, TicketChange{
			At:      simclock.Time(rng.Intn(24) * 3600),
			User:    users[rng.Intn(len(users))],
			Tickets: float64(rng.Intn(4)), // 0 is in range on purpose
		})
	}
	cfg := Config{
		Cluster: cluster, Specs: specs, Seed: seed,
		TicketChanges:    changes,
		DisableMigration: rng.Intn(3) == 0,
		Faults: &faults.Config{
			ServerMTBFHours: 4, ServerOutageMeanHours: 1,
			FlakyServers: 1, FlakyMTBFHours: 1,
			QuarantineFailures: 2, QuarantineWindowHours: 2, QuarantineCooloffHours: 1,
			MigrationFailProb: 0.3,
			JobCrashMTBFHours: 4,
			DegradeMTBFHours:  6, DegradeFactor: 0.7,
		},
		Audit: AuditStrict,
	}
	fc := FairConfig{EnableTrading: rng.Intn(2) == 0}
	// A third of the runs take their tickets from orgs of random weights
	// instead, which leave one user in eight out (no tickets).
	var orgs map[string]*fairshare.Org
	if rng.Intn(3) == 0 {
		orgs = make(map[string]*fairshare.Org)
		names := []string{"red", "green", "blue"}[:2+rng.Intn(2)]
		for i, u := range users {
			if i >= len(names) && rng.Intn(8) == 0 {
				continue
			}
			name := names[i%len(names)]
			if i >= len(names) {
				name = names[rng.Intn(len(names))]
			}
			if orgs[name] == nil {
				orgs[name] = &fairshare.Org{Tickets: 1 + 3*rng.Float64(), Weights: make(map[job.UserID]float64)}
			}
			orgs[name].Weights[u] = 0.5 + rng.Float64()
		}
		h, err := fairshare.NewHierarchy(orgs)
		if err != nil {
			t.Fatal(err)
		}
		fc.Hierarchy = h
	}
	want := newOracleFair(fc)
	want.orgs = orgs
	w := &fairTwin{
		t: t, got: MustNewFairPolicy(fc), want: want, cov: cov,
		label: fmt.Sprintf("seed %d trading=%v migration=%v hierarchy=%v", seed, fc.EnableTrading, !cfg.DisableMigration,
			fc.Hierarchy != nil),
		lastSeen: make(map[job.UserID]int),
	}
	sim, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(simclock.Time(48 * simclock.Hour)); err != nil {
		t.Fatalf("%s: %v", w.label, err)
	}
	if fc.Hierarchy != nil {
		cov.hierarchical++
	}
	if fc.EnableTrading {
		cov.trading++
	} else {
		cov.noTrading++
	}
	if cfg.DisableMigration {
		cov.noMigration++
	} else {
		cov.migration++
	}
}

// dealOutOfOrder shuffles each user's arrival times among that user's
// own jobs, so jobs arrive out of ID order — where a policy that keys its
// books by anything but the job ID would go wrong — while each user still
// comes and goes as the workload drew them. The shuffle draws from an RNG
// of its own, so the rest of the corpus draws as before.
func dealOutOfOrder(specs []job.Spec, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	byUser := make(map[job.UserID][]int)
	for i := range specs {
		byUser[specs[i].User] = append(byUser[specs[i].User], i)
	}
	for _, u := range job.SortedUsers(byUser) {
		at := byUser[u]
		rng.Shuffle(len(at), func(a, b int) {
			specs[at[a]].Arrival, specs[at[b]].Arrival = specs[at[b]].Arrival, specs[at[a]].Arrival
		})
	}
}

var fairOracleSeeds = []int64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89}

// TestFairDecideMatchesOracle holds FairPolicy's whole Decision — Run,
// the trades and Repays — to the oracle's, round by round, over the
// fuzz corpus, and checks the corpus reaches every case the oracle is
// there for: users who leave and come back — as another leaves, whose
// books they must not inherit — debt and its repayment, trades made,
// users at zero tickets, rounds that lose a generation, rounds whose
// serve order needs its tie-break, pinned jobs, contention, runs with
// trading and migration each on and off, and runs with hierarchical
// tickets.
func TestFairDecideMatchesOracle(t *testing.T) {
	var cov fairCoverage
	for _, seed := range fairOracleSeeds {
		matchFairOracle(t, seed, &cov)
	}
	t.Logf("%+v", cov)
	for _, c := range []struct {
		what string
		n    int
	}{
		{"users returning", cov.returns}, {"rounds a user arrives as another leaves", cov.handoffs},
		{"repaying rounds", cov.repaying}, {"trades", cov.trades},
		{"rounds with a zero-ticket user", cov.noTickets}, {"rounds missing a generation", cov.dropped},
		{"rounds with a pinned job", cov.pinned}, {"rounds leaving a job out", cov.contended},
		{"rounds serving many users, two on equal credit", cov.ties},
		{"runs trading", cov.trading}, {"runs not trading", cov.noTrading},
		{"runs migrating", cov.migration}, {"runs without migration", cov.noMigration},
		{"runs with hierarchical tickets", cov.hierarchical},
	} {
		if c.n == 0 {
			t.Errorf("the corpus no longer reaches %s", c.what)
		}
	}
}

// FuzzFairDecideMatchesOracle is TestFairDecideMatchesOracle over any
// seed.
//
// Run with: go test -run '^$' -fuzz FuzzFairDecideMatchesOracle -fuzztime 60s -parallel 2 ./internal/core
func FuzzFairDecideMatchesOracle(f *testing.F) {
	for _, seed := range fairOracleSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { matchFairOracle(t, seed, &fairCoverage{}) })
}
