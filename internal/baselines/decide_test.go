package baselines

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// twin drives a policy and its oracle through the same rounds: both
// decide on every RoundState, the policy's decision runs, and both are
// told what happened. It fails the test at the first round whose
// Decision.Run differs.
type twin struct {
	t         *testing.T
	got, want core.Policy
	label     string

	rounds, dropped, reqs int // rounds decided, rounds missing a generation, requests compared
	contended             int // rounds that left a runnable job out
}

func (w *twin) Name() string { return w.got.Name() }

func (w *twin) Decide(st *core.RoundState) core.Decision {
	w.rounds++
	if len(st.CapacityByGen()) < len(st.Cluster.GensPresent()) {
		w.dropped++
	}
	want := w.want.Decide(st)
	got := w.got.Decide(st)
	if !slices.Equal(got.Run, want.Run) {
		w.t.Fatalf("%s: round %d at t=%v: Run differs from the oracle's\n got %v\nwant %v",
			w.label, w.rounds, st.Now, requests(got), requests(want))
	}
	w.reqs += len(got.Run)
	if len(got.Run) < len(st.Jobs) {
		w.contended++
	}
	return got
}

func (w *twin) Executed(rep *core.ExecReport) {
	w.want.Executed(rep)
	w.got.Executed(rep)
}

func (w *twin) JobFinished(id job.ID) {
	w.want.JobFinished(id)
	w.got.JobFinished(id)
}

func requests(d core.Decision) []string {
	s := make([]string, len(d.Run))
	for i, r := range d.Run {
		s[i] = fmt.Sprintf("%d@%v", r.Job.ID, r.Gen)
	}
	return s
}

// oracleCoverage is what one seed's runs exercised.
type oracleCoverage struct {
	rounds, dropped, reqs, contended int
	noMigration                      bool
}

// matchOracle runs every baseline against its oracle on one seeded
// random workload: a three-generation cluster whose only V100 server
// can go down (its generation then drops out of CapacityByGen), the
// full fault model, job IDs out of arrival order and tied arrivals,
// ticket changes (to zero too), migrations disabled on some seeds, and
// static quota twice — with a holder list that omits a user who has
// jobs, and with one that names a user who has none and repeats another.
func matchOracle(t *testing.T, seed int64) oracleCoverage {
	rng := rand.New(rand.NewSource(seed))
	// K80 and P100 hold at least 4 GPUs each, the widest gang.
	cluster := gpu.MustNew(
		gpu.Spec{Gen: gpu.K80, Servers: 2 + rng.Intn(2), GPUsPerSrv: 2 + rng.Intn(3)},
		gpu.Spec{Gen: gpu.P100, Servers: 2 + rng.Intn(2), GPUsPerSrv: 2 + rng.Intn(3)},
		gpu.Spec{Gen: gpu.V100, Servers: 1, GPUsPerSrv: 2 + rng.Intn(3)},
	)
	users := []job.UserID{"a", "b", "c"}
	var us []workload.UserSpec
	for _, u := range users {
		us = append(us, workload.UserSpec{
			User: u, NumJobs: 10 + rng.Intn(20), ArrivalRatePerHour: float64(2 + rng.Intn(6)),
			MeanK80Hours: 1 + 3*rng.Float64(),
			GangDist:     []workload.GangWeight{{Gang: 1, Weight: 0.6}, {Gang: 2, Weight: 0.3}, {Gang: 4, Weight: 0.1}},
		})
	}
	specs := workload.MustGenerate(zoo, workload.Config{Seed: seed, Users: us, MaxK80Hours: 4})
	// Generate numbers jobs in arrival order. Deal the arrivals out anew,
	// cut to the hour, so ID order is not arrival order and arrivals tie.
	rng.Shuffle(len(specs), func(i, k int) { specs[i].Arrival, specs[k].Arrival = specs[k].Arrival, specs[i].Arrival })
	for i := range specs {
		specs[i].Arrival = simclock.Time(math.Floor(float64(specs[i].Arrival)/3600) * 3600)
	}
	var changes []core.TicketChange
	for range rng.Intn(4) {
		changes = append(changes, core.TicketChange{
			At:      simclock.Time(rng.Intn(12) * 3600),
			User:    users[rng.Intn(len(users))],
			Tickets: float64(rng.Intn(4)), // 0 is in range on purpose
		})
	}
	cfg := core.Config{
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
		Audit: core.AuditStrict,
	}
	omit := users[rng.Intn(len(users))]
	omitted := slices.DeleteFunc(slices.Clone(users), func(u job.UserID) bool { return u == omit })
	padded := append(slices.Clone(users), "ghost", users[rng.Intn(len(users))])

	cov := oracleCoverage{noMigration: cfg.DisableMigration}
	for _, w := range []*twin{
		{got: NewTiresias(), want: &oracleTiresias{}},
		{got: NewGandivaRR(), want: newOracleGandivaRR()},
		{got: NewStaticQuota(omitted), want: newOracleStaticQuota(omitted), label: fmt.Sprintf(" %v", omitted)},
		{got: NewStaticQuota(padded), want: newOracleStaticQuota(padded), label: fmt.Sprintf(" %v", padded)},
		{got: NewFIFO(), want: &oracleFIFO{}},
	} {
		w.t = t
		w.label = fmt.Sprintf("seed %d %s%s", seed, w.got.Name(), w.label)
		run(t, cfg, w, simclock.Time(36*simclock.Hour))
		cov.rounds += w.rounds
		cov.dropped += w.dropped
		cov.reqs += w.reqs
		cov.contended += w.contended
	}
	return cov
}

var oracleSeeds = []int64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89}

// TestDecideMatchesOracle holds every baseline's Decision.Run to the
// replaced code's, round by round, over the fuzz corpus, and checks
// the corpus reaches what the oracle is there for: rounds that lose a
// generation, rounds that cannot run every job, and runs with
// migrations disabled.
func TestDecideMatchesOracle(t *testing.T) {
	var total oracleCoverage
	noMigration := 0
	for _, seed := range oracleSeeds {
		cov := matchOracle(t, seed)
		total.rounds += cov.rounds
		total.dropped += cov.dropped
		total.reqs += cov.reqs
		total.contended += cov.contended
		if cov.noMigration {
			noMigration++
		}
	}
	t.Logf("%d rounds (%d missing a generation, %d leaving a job out), %d requests, %d of %d seeds without migration",
		total.rounds, total.dropped, total.contended, total.reqs, noMigration, len(oracleSeeds))
	if total.dropped == 0 || total.contended == 0 || noMigration == 0 || noMigration == len(oracleSeeds) {
		t.Errorf("the corpus no longer covers a lost generation, contention and both migration settings")
	}
}

// FuzzDecideMatchesOracle is TestDecideMatchesOracle over any seed.
//
// Run with: go test -run '^$' -fuzz FuzzDecideMatchesOracle -fuzztime 60s -parallel 2 ./internal/baselines
func FuzzDecideMatchesOracle(f *testing.F) {
	for _, seed := range oracleSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { matchOracle(t, seed) })
}

// allocProbe measures its policy's Decide, on the engine's own
// RoundState, at one steady round: testing.AllocsPerRun decides once
// to warm up, then counts.
type allocProbe struct {
	core.Policy
	at, round int
	allocs    float64
}

func (p *allocProbe) Decide(st *core.RoundState) core.Decision {
	p.round++
	if p.round == p.at {
		p.allocs = testing.AllocsPerRun(20, func() { p.Policy.Decide(st) })
	}
	return p.Policy.Decide(st)
}

// TestDecideAllocatesNothing is the allocation gate: on a steady round
// of 400 backlogged jobs of four users on a 48-GPU, three-generation
// cluster, Decide allocates nothing. The map-and-SliceStable code this
// package replaced allocated, per Decide on this round: tiresias-l 13,
// gandiva-rr 12, static-quota 76, fifo 13.
func TestDecideAllocatesNothing(t *testing.T) {
	cluster := gpu.MustNew(
		gpu.Spec{Gen: gpu.K80, Servers: 4, GPUsPerSrv: 4},
		gpu.Spec{Gen: gpu.P100, Servers: 4, GPUsPerSrv: 4},
		gpu.Spec{Gen: gpu.V100, Servers: 4, GPUsPerSrv: 4},
	)
	users := []job.UserID{"a", "b", "c", "d"}
	var specs []job.Spec
	for i, u := range users {
		specs = append(specs, workload.BatchJobs(u, zoo.MustGet("lstm"), 60, 1, 300)...)
		specs = append(specs, workload.BatchJobs(u, zoo.MustGet("resnet50"), 40, 1+i%2, 300)...)
	}
	specs, _ = workload.AssignIDs(specs)
	cfg := core.Config{Cluster: cluster, Specs: specs, Seed: 3}
	for _, p := range []core.Policy{NewTiresias(), NewGandivaRR(), NewStaticQuota(users), NewFIFO()} {
		probe := &allocProbe{Policy: p, at: 5}
		res := run(t, cfg, probe, simclock.Time(2*simclock.Hour))
		if probe.round < probe.at || len(res.Finished) > 0 {
			t.Fatalf("%s: %d rounds, %d finished: not the steady round measured", p.Name(), probe.round, len(res.Finished))
		}
		t.Logf("%s: %.1f allocations per Decide over %d jobs", p.Name(), probe.allocs, len(specs))
		if probe.allocs != 0 {
			t.Errorf("%s: Decide allocates %.1f times on a steady round, want 0", p.Name(), probe.allocs)
		}
	}
}

// TestStaticQuotaCountsRepeatedHolderOnce: a user listed twice (a
// scenario giving one user two job streams) holds one quota. Counted
// twice, their tickets inflated the split's denominator, the quotas
// summed short of the capacity and the leftover GPUs idled: 24
// one-GPU jobs on 12 K80s ran at utilization 0.667 with holders
// [a a b] against 1.000 with [a b].
func TestStaticQuotaCountsRepeatedHolderOnce(t *testing.T) {
	var specs []job.Spec
	specs = append(specs, workload.BatchJobs("a", zoo.MustGet("lstm"), 12, 1, 300)...)
	specs = append(specs, workload.BatchJobs("b", zoo.MustGet("lstm"), 12, 1, 300)...)
	specs, _ = workload.AssignIDs(specs)
	cfg := core.Config{Cluster: k80Cluster(3, 4), Specs: specs, Seed: 10}
	for _, holders := range [][]job.UserID{{"a", "b"}, {"a", "a", "b"}, {"b", "a", "b", "a"}} {
		res := run(t, cfg, NewStaticQuota(holders), simclock.Time(6*simclock.Hour))
		if u := res.Utilization.Fraction(); u < 1-1e-9 {
			t.Errorf("holders %v: utilization %v, want 1 (every GPU in some quota)", holders, u)
		}
	}
}

// TestGandivaRRHoldsNoFinishedJob: the served counts are kept by the
// engine's slot, which a finished job hands on to a later one, so the
// policy never holds more records than the engine ever had jobs active
// at once, however many finish. 48 short jobs of two users arrive a
// quarter hour apart on 8 GPUs, so a few are active at a time and at
// least three times the peak finish. The served count of a job once
// deleted on JobFinished was made again by Executed, and records kept by
// job — one per job ever seen — hold as many as have finished.
func TestGandivaRRHoldsNoFinishedJob(t *testing.T) {
	specs := workload.BatchJobs("u", zoo.MustGet("lstm"), 32, 1, 0.5)
	specs = append(specs, workload.BatchJobs("v", zoo.MustGet("gru"), 16, 2, 0.5)...)
	for i := range specs {
		specs[i].Arrival = simclock.Time(i * 900)
	}
	specs, _ = workload.AssignIDs(specs)
	g := NewGandivaRR()
	p := &peakJobs{Policy: g}
	res := run(t, core.Config{Cluster: k80Cluster(2, 4), Specs: specs, Seed: 11}, p,
		simclock.Time(2*simclock.Day))
	if len(res.Finished) != len(specs) {
		t.Fatalf("finished %d of %d jobs", len(res.Finished), len(specs))
	}
	t.Logf("%d jobs finished, at most %d active at once; %d records", len(res.Finished), p.peak, len(g.recs))
	if len(res.Finished) < 3*p.peak {
		t.Fatalf("fixture: %d jobs finished, fewer than 3× the peak of %d active", len(res.Finished), p.peak)
	}
	if len(g.recs) > p.peak {
		t.Errorf("the policy holds %d records, more than the %d jobs ever active at once", len(g.recs), p.peak)
	}
}

// peakJobs wraps a policy and counts the most runnable jobs a round
// showed it.
type peakJobs struct {
	core.Policy
	peak int
}

func (p *peakJobs) Decide(st *core.RoundState) core.Decision {
	p.peak = max(p.peak, len(st.Jobs))
	return p.Policy.Decide(st)
}
