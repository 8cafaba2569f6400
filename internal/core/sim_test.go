package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/placement"
	"repro/internal/simclock"
	"repro/internal/workload"
)

var zoo = workload.DefaultZoo()

func k80Cluster(servers, gpus int) *gpu.Cluster {
	return gpu.MustNew(gpu.Spec{Gen: gpu.K80, Servers: servers, GPUsPerSrv: gpus})
}

func mixedCluster() *gpu.Cluster {
	return gpu.MustNew(
		gpu.Spec{Gen: gpu.K80, Servers: 2, GPUsPerSrv: 4},
		gpu.Spec{Gen: gpu.V100, Servers: 2, GPUsPerSrv: 4},
	)
}

func runFair(t *testing.T, cfg Config, fcfg FairConfig, until simclock.Time) *Result {
	t.Helper()
	sim, err := New(cfg, MustNewFairPolicy(fcfg))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(until)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func shares(res *Result) map[job.UserID]float64 {
	return metrics.ShareFractions(res.TotalUsageByUser())
}

func TestConfigValidation(t *testing.T) {
	good := Config{
		Cluster: k80Cluster(1, 4),
		Specs:   workload.BatchJobs("u", zoo.MustGet("vae"), 2, 1, 1),
	}
	good.Specs, _ = workload.AssignIDs(good.Specs)
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := []Config{
		{Specs: good.Specs},     // nil cluster
		{Cluster: good.Cluster}, // no jobs
		{Cluster: good.Cluster, Specs: []job.Spec{good.Specs[0], good.Specs[0]}}, // dup IDs
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	// Gang bigger than the cluster.
	huge := workload.BatchJobs("u", zoo.MustGet("vae"), 1, 99, 1)
	huge, _ = workload.AssignIDs(huge)
	if (Config{Cluster: good.Cluster, Specs: huge}).Validate() == nil {
		t.Error("oversized gang accepted")
	}
	if _, err := New(good, nil); err == nil {
		t.Error("nil policy accepted")
	}
}

// TestValidateNamesSmallestDuplicate: Validate finds duplicate job IDs
// by sorting them, so the error names the smallest duplicated ID
// wherever its copies sit, and distinct IDs in any order pass.
func TestValidateNamesSmallestDuplicate(t *testing.T) {
	specs, _ := workload.AssignIDs(workload.BatchJobs("u", zoo.MustGet("vae"), 6, 1, 1))
	cfg := Config{Cluster: k80Cluster(1, 4), Specs: specs}
	slices.Reverse(cfg.Specs)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("distinct IDs in reverse order: %v", err)
	}
	cfg.Specs[0].ID, cfg.Specs[5].ID = 4, 2 // IDs 4, 5, 4, 3, 2, 2
	err := cfg.Validate()
	if err == nil || err.Error() != "core: duplicate job ID 2" {
		t.Fatalf("Validate = %v, want the smallest duplicate, job 2", err)
	}
}

// TestConfigValidateIsTotal holds Validate to every value New or Run
// cannot use: each row passed Validate once and then hung Run, panicked
// in New, failed only in New, or silently finished no job.
func TestConfigValidateIsTotal(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	specs, _ := workload.AssignIDs(workload.BatchJobs("u", zoo.MustGet("vae"), 2, 1, 1))
	for _, tc := range []struct {
		name string
		edit func(*Config)
	}{
		{"quantum NaN", func(c *Config) { c.Quantum = nan }},
		{"quantum +Inf", func(c *Config) { c.Quantum = inf }},
		{"timeline window -1", func(c *Config) { c.TimelineWindow = -1 }},
		{"timeline window NaN", func(c *Config) { c.TimelineWindow = nan }},
		{"tickets NaN", func(c *Config) { c.Tickets = map[job.UserID]float64{"u": nan} }},
		{"tickets +Inf", func(c *Config) { c.Tickets = map[job.UserID]float64{"u": inf} }},
		{"tickets overflowing their sum", func(c *Config) { c.Tickets = map[job.UserID]float64{"u": 1e308, "v": 1e308} }},
		{"ticket change overflowing the sum", func(c *Config) {
			c.Tickets = map[job.UserID]float64{"u": 1e308}
			c.TicketChanges = []TicketChange{{At: 0, User: "v", Tickets: 1e308}}
		}},
		{"ticket change NaN", func(c *Config) { c.TicketChanges = []TicketChange{{At: 0, User: "u", Tickets: nan}} }},
		{"ticket change at NaN", func(c *Config) { c.TicketChanges = []TicketChange{{At: simclock.Time(nan), User: "u", Tickets: 1}} }},
		{"failure duration NaN", func(c *Config) { c.Failures = []Failure{{Server: 0, At: 0, Duration: nan}} }},
		{"profiler noise -1", func(c *Config) { c.ProfilerNoise = -1 }},
		{"profiler noise NaN", func(c *Config) { c.ProfilerNoise = nan }},
		{"arrival NaN", func(c *Config) { c.Specs = slices.Clone(c.Specs); c.Specs[0].Arrival = simclock.Time(nan) }},
		{"arrival +Inf", func(c *Config) { c.Specs = slices.Clone(c.Specs); c.Specs[1].Arrival = simclock.Time(inf) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Cluster: k80Cluster(1, 4), Specs: specs}
			tc.edit(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("Validate accepted it")
			}
			if _, err := New(cfg, MustNewFairPolicy(FairConfig{})); err == nil {
				t.Fatal("New accepted it")
			}
		})
	}
}

func TestSingleJobRunsToCompletion(t *testing.T) {
	specs := workload.BatchJobs("alice", zoo.MustGet("resnet50"), 1, 2, 1.0) // 1h standalone on K80
	specs, _ = workload.AssignIDs(specs)
	res := runFair(t, Config{Cluster: k80Cluster(1, 4), Specs: specs, Seed: 1},
		FairConfig{}, simclock.Time(2*simclock.Day))
	if len(res.Finished) != 1 || res.Unfinished != 0 {
		t.Fatalf("finished=%d unfinished=%d", len(res.Finished), res.Unfinished)
	}
	j := res.Finished[0]
	// JCT ≈ standalone 3600 s plus one resume overhead, rounded up by
	// quantum granularity at most.
	if jct := j.JCT(); jct < 3600 || jct > 3600+2*360 {
		t.Errorf("JCT = %v, want ≈3600s", jct)
	}
	if j.Migrations() != 0 {
		t.Errorf("solo job migrated %d times", j.Migrations())
	}
	if res.Policy != "gandiva-fair-no-trade" {
		t.Errorf("policy name = %q", res.Policy)
	}
}

func TestEqualUsersEqualShares(t *testing.T) {
	var specs []job.Spec
	specs = append(specs, workload.BatchJobs("a", zoo.MustGet("lstm"), 6, 1, 200)...)
	specs = append(specs, workload.BatchJobs("b", zoo.MustGet("gru"), 6, 1, 200)...)
	specs, _ = workload.AssignIDs(specs)
	res := runFair(t, Config{Cluster: k80Cluster(2, 4), Specs: specs, Seed: 2},
		FairConfig{}, simclock.Time(12*simclock.Hour))
	sh := shares(res)
	if math.Abs(sh["a"]-0.5) > 0.03 || math.Abs(sh["b"]-0.5) > 0.03 {
		t.Fatalf("shares = %v, want ≈0.5 each", sh)
	}
	if u := res.Utilization.Fraction(); u < 0.95 {
		t.Errorf("utilization %v, want ≥0.95 under full contention", u)
	}
}

func TestTicketProportionalShares(t *testing.T) {
	var specs []job.Spec
	specs = append(specs, workload.BatchJobs("a", zoo.MustGet("lstm"), 8, 1, 200)...)
	specs = append(specs, workload.BatchJobs("b", zoo.MustGet("gru"), 8, 1, 200)...)
	specs, _ = workload.AssignIDs(specs)
	res := runFair(t, Config{
		Cluster: k80Cluster(2, 4),
		Specs:   specs,
		Tickets: map[job.UserID]float64{"a": 3, "b": 1},
		Seed:    3,
	}, FairConfig{}, simclock.Time(12*simclock.Hour))
	sh := shares(res)
	if math.Abs(sh["a"]-0.75) > 0.04 || math.Abs(sh["b"]-0.25) > 0.04 {
		t.Fatalf("shares = %v, want 0.75/0.25", sh)
	}
}

func TestSmallVsBigJobsUserFairness(t *testing.T) {
	// The paper's headline fairness scenario: a user with many small
	// jobs must not crowd out a user with few big gangs.
	var specs []job.Spec
	specs = append(specs, workload.BatchJobs("many", zoo.MustGet("vae"), 16, 1, 400)...)
	specs = append(specs, workload.BatchJobs("big", zoo.MustGet("resnet50"), 2, 8, 400)...)
	specs, _ = workload.AssignIDs(specs)
	res := runFair(t, Config{Cluster: k80Cluster(8, 4), Specs: specs, Seed: 4},
		FairConfig{}, simclock.Time(24*simclock.Hour))
	sh := shares(res)
	if math.Abs(sh["many"]-0.5) > 0.06 || math.Abs(sh["big"]-0.5) > 0.06 {
		t.Fatalf("shares = %v, want ≈0.5 each despite gang asymmetry", sh)
	}
}

func TestWorkConservationSoloUser(t *testing.T) {
	specs := workload.BatchJobs("solo", zoo.MustGet("squeezenet"), 10, 1, 100)
	specs, _ = workload.AssignIDs(specs)
	res := runFair(t, Config{Cluster: k80Cluster(2, 4), Specs: specs, Seed: 5},
		FairConfig{}, simclock.Time(6*simclock.Hour))
	if u := res.Utilization.Fraction(); u < 0.95 {
		t.Fatalf("solo user utilization %v, want ≥0.95 (work conservation)", u)
	}
}

func TestShareReclaimedOnDeparture(t *testing.T) {
	// User a's jobs finish around hour 4 (2 jobs × 1-GPU × 8 K80-hours
	// at half the 4-GPU cluster... sized so they finish mid-run);
	// user b then inherits the whole cluster.
	var specs []job.Spec
	specs = append(specs, workload.BatchJobs("a", zoo.MustGet("lstm"), 2, 1, 2)...)
	specs = append(specs, workload.BatchJobs("b", zoo.MustGet("gru"), 4, 1, 100)...)
	specs, _ = workload.AssignIDs(specs)
	res := runFair(t, Config{
		Cluster:        k80Cluster(1, 4),
		Specs:          specs,
		Seed:           6,
		TimelineWindow: simclock.Hour,
	}, FairConfig{}, simclock.Time(10*simclock.Hour))
	// a had 2 jobs × 2h standalone; with ≥half share they finish by
	// hour ~4. Afterwards b must hold ~100% of a fully busy cluster.
	ws := res.Timeline.Windows()
	if len(ws) < 8 {
		t.Fatalf("only %d timeline windows", len(ws))
	}
	last := ws[len(ws)-1]
	if fr := last.Fractions(); fr[1] < 0.99 { // a at 0, b at 1
		t.Fatalf("after a departed, b's share = %v, want ≈1", fr[1])
	}
	if busy := last.Total(); busy < 0.95*4*simclock.Hour {
		t.Fatalf("cluster not fully used after departure: %v GPU-s in last window", busy)
	}
	if len(res.Finished) < 2 {
		t.Fatalf("a's jobs did not finish")
	}
}

// TestTimelineStartsAtFirstRound: the share timeline's windows start at
// the engine's first round, not at time zero — an engine whose only job
// arrives ten years in holds the window of its first rounds and
// perhaps the next, not 87,600 empty hours before them.
func TestTimelineStartsAtFirstRound(t *testing.T) {
	const tenYears = simclock.Time(10 * 365 * simclock.Day)
	specs := workload.BatchJobs("a", zoo.MustGet("vae"), 1, 1, 100)
	specs[0].Arrival = tenYears
	specs, _ = workload.AssignIDs(specs)
	s, err := New(Config{Cluster: k80Cluster(1, 4), Specs: specs}, MustNewFairPolicy(FairConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := s.Step(tenYears.Add(simclock.Day)); err != nil {
			t.Fatal(err)
		}
	}
	ws := s.Result().Timeline.Windows()
	if len(ws) < 1 || len(ws) > 2 {
		t.Fatalf("%d windows after 12 rounds from %v s, want 1 or 2", len(ws), tenYears)
	}
	if ws[0].Start > tenYears || ws[0].End <= tenYears || ws[0].ByUser[0] <= 0 {
		t.Errorf("first window [%v, %v) holds %v; want the arrival's window, charged", ws[0].Start, ws[0].End, ws[0].ByUser)
	}
}

func TestTradingWinWin(t *testing.T) {
	// mem-bound user (vae ≈1.22× on V100) and compute-dense user
	// (resnext50 ≈4.46×) share a K80+V100 cluster. Trading must raise
	// both users' throughput versus the heterogeneity-blind fair
	// share.
	build := func() Config {
		var specs []job.Spec
		specs = append(specs, workload.BatchJobs("mem", zoo.MustGet("vae"), 12, 1, 300)...)
		specs = append(specs, workload.BatchJobs("dense", zoo.MustGet("resnext50"), 12, 1, 300)...)
		specs, _ = workload.AssignIDs(specs)
		return Config{Cluster: mixedCluster(), Specs: specs, Seed: 7}
	}
	horizon := simclock.Time(24 * simclock.Hour)
	blind := runFair(t, build(), FairConfig{EnableTrading: false}, horizon)
	traded := runFair(t, build(), FairConfig{EnableTrading: true}, horizon)

	if traded.TradeCount == 0 {
		t.Fatal("no trades executed")
	}
	for _, u := range []job.UserID{"mem", "dense"} {
		b, tr := blind.ThroughputByUser[u], traded.ThroughputByUser[u]
		if tr < b*0.99 {
			t.Errorf("user %s throughput fell with trading: %v → %v", u, b, tr)
		}
	}
	// Theory for this fixture: blind share is 4 K80 + 4 V100 per
	// user; the trade is capped by dense's K80 purse (4 GPUs) at the
	// geometric price α≈2.3, moving δ≈1.73 V100s, so dense's value
	// goes 21.8→25.6 K80-equivalents ⇒ ≈1.17×.
	if gain := traded.ThroughputByUser["dense"] / blind.ThroughputByUser["dense"]; gain < 1.10 {
		t.Errorf("dense user's trading gain = %v, want ≥1.10 (V100 concentration)", gain)
	}
}

func TestDeterminism(t *testing.T) {
	build := func() Config {
		specs := workload.MustGenerate(zoo, workload.Config{
			Seed: 11,
			Users: []workload.UserSpec{
				{User: "a", NumJobs: 20, ArrivalRatePerHour: 2},
				{User: "b", NumJobs: 20, ArrivalRatePerHour: 2},
			},
		})
		return Config{Cluster: mixedCluster(), Specs: specs, Seed: 11}
	}
	run := func() *Result {
		return runFair(t, build(), FairConfig{EnableTrading: true}, simclock.Time(20*simclock.Hour))
	}
	r1, r2 := run(), run()
	if len(r1.Finished) != len(r2.Finished) || r1.Migrations != r2.Migrations ||
		r1.TradeCount != r2.TradeCount || r1.Rounds != r2.Rounds {
		t.Fatalf("runs differ: %d/%d fin, %d/%d mig, %d/%d trades",
			len(r1.Finished), len(r2.Finished), r1.Migrations, r2.Migrations,
			r1.TradeCount, r2.TradeCount)
	}
	u1, u2 := r1.TotalUsageByUser(), r2.TotalUsageByUser()
	for u, v := range u1 {
		if math.Abs(u2[u]-v) > 1e-6 {
			t.Fatalf("usage differs for %s: %v vs %v", u, v, u2[u])
		}
	}
	for i := range r1.Finished {
		if r1.Finished[i].ID != r2.Finished[i].ID ||
			r1.Finished[i].FinishTime() != r2.Finished[i].FinishTime() {
			t.Fatalf("finish order/time differs at %d", i)
		}
	}
}

func TestArrivalFastForward(t *testing.T) {
	specs := workload.BatchJobs("late", zoo.MustGet("vae"), 1, 1, 0.5)
	specs[0].Arrival = simclock.Time(50 * simclock.Hour)
	specs, _ = workload.AssignIDs(specs)
	res := runFair(t, Config{Cluster: k80Cluster(1, 4), Specs: specs, Seed: 8},
		FairConfig{}, simclock.Time(60*simclock.Hour))
	if len(res.Finished) != 1 {
		t.Fatalf("late job did not finish")
	}
	// The engine must skip the idle 50 hours, not grind through them:
	// ~0.5 h of work ⇒ a handful of rounds.
	if res.Rounds > 20 {
		t.Errorf("engine ran %d rounds, idle fast-forward broken", res.Rounds)
	}
	if jct := res.Finished[0].JCT(); jct > simclock.Hour {
		t.Errorf("late job JCT = %v, want <1h", jct)
	}
}

func TestHorizonStopsUnfinishedJobs(t *testing.T) {
	specs := workload.BatchJobs("u", zoo.MustGet("transformer"), 2, 1, 100)
	specs, _ = workload.AssignIDs(specs)
	res := runFair(t, Config{Cluster: k80Cluster(1, 2), Specs: specs, Seed: 9},
		FairConfig{}, simclock.Time(2*simclock.Hour))
	if res.Unfinished != 2 {
		t.Fatalf("unfinished = %d, want 2", res.Unfinished)
	}
	if res.End > simclock.Time(2*simclock.Hour)+360 {
		t.Errorf("sim ran past horizon: %v", res.End)
	}
}

func TestBadHorizon(t *testing.T) {
	specs := workload.BatchJobs("u", zoo.MustGet("vae"), 1, 1, 1)
	specs, _ = workload.AssignIDs(specs)
	sim, err := New(Config{Cluster: k80Cluster(1, 1), Specs: specs}, MustNewFairPolicy(FairConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(0); err == nil {
		t.Error("zero horizon accepted")
	}
}

// badPolicy lets tests drive the engine's decision validation.
type badPolicy struct {
	decide   func(st *RoundState) Decision
	executed func(*ExecReport) // optional
	finished func(job.ID)      // optional
}

func (b *badPolicy) Name() string                   { return "bad" }
func (b *badPolicy) Decide(st *RoundState) Decision { return b.decide(st) }
func (b *badPolicy) Executed(rep *ExecReport) {
	if b.executed != nil {
		b.executed(rep)
	}
}
func (b *badPolicy) JobFinished(id job.ID) {
	if b.finished != nil {
		b.finished(id)
	}
}

func TestDecisionValidation(t *testing.T) {
	specs := workload.BatchJobs("u", zoo.MustGet("vae"), 3, 1, 10)
	specs, _ = workload.AssignIDs(specs)
	cfg := Config{Cluster: k80Cluster(1, 2), Specs: specs, Seed: 10}

	cases := map[string]func(st *RoundState) Decision{
		"overcommit": func(st *RoundState) Decision {
			var run []placement.Request
			for _, j := range st.Jobs {
				run = append(run, placement.Request{Job: j, Gen: gpu.K80})
			}
			return Decision{Run: run} // 3 > capacity 2
		},
		"duplicate": func(st *RoundState) Decision {
			return Decision{Run: []placement.Request{
				{Job: st.Jobs[0], Gen: gpu.K80},
				{Job: st.Jobs[0], Gen: gpu.K80},
			}}
		},
		"wrong generation": func(st *RoundState) Decision {
			return Decision{Run: []placement.Request{{Job: st.Jobs[0], Gen: gpu.V100}}}
		},
		"unknown job": func(st *RoundState) Decision {
			ghost := job.MustNew(job.Spec{ID: 999, User: "x", Perf: zoo.MustGet("vae"), Gang: 1, TotalMB: 1})
			return Decision{Run: []placement.Request{{Job: ghost, Gen: gpu.K80}}}
		},
	}
	for name, decide := range cases {
		sim, err := New(cfg, &badPolicy{decide: decide})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(simclock.Time(simclock.Hour)); err == nil {
			t.Errorf("%s decision accepted", name)
		}
	}
}

// TestDecisionRefusesRecordsNotTheEngines: a request must name one of
// the engine's own live records. A copy of a runnable job (same ID,
// another pointer), a record of another engine running the same
// workload, and a job the engine has already retired are all "unknown",
// whatever else is right about them — and are refused before a later
// duplicate in the same decision is.
func TestDecisionRefusesRecordsNotTheEngines(t *testing.T) {
	specs := workload.BatchJobs("u", zoo.MustGet("vae"), 3, 1, 0.05)
	specs = append(specs, workload.BatchJobs("u", zoo.MustGet("vae"), 1, 1, 50)...)
	specs, _ = workload.AssignIDs(specs)
	cfg := Config{Cluster: k80Cluster(1, 4), Specs: specs, Seed: 10}
	fair := func() Policy { return MustNewFairPolicy(FairConfig{}) }

	other, err := New(cfg, fair())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Step(simclock.Time(simclock.Hour)); err != nil {
		t.Fatal(err)
	}

	var retired *job.Job
	cases := map[string]func(st *RoundState) (run []placement.Request, unknown *job.Job){
		"copy": func(st *RoundState) ([]placement.Request, *job.Job) {
			cp := *st.Jobs[0]
			return []placement.Request{{Job: &cp, Gen: gpu.K80}}, &cp
		},
		"another engine's": func(st *RoundState) ([]placement.Request, *job.Job) {
			return []placement.Request{{Job: other.jobs[0], Gen: gpu.K80}}, other.jobs[0]
		},
		"retired": func(st *RoundState) ([]placement.Request, *job.Job) {
			return []placement.Request{{Job: retired, Gen: gpu.K80}}, retired
		},
		"unknown before duplicate": func(st *RoundState) ([]placement.Request, *job.Job) {
			last := st.Jobs[len(st.Jobs)-1]
			return []placement.Request{{Job: last, Gen: gpu.K80}, {Job: retired, Gen: gpu.K80}, {Job: last, Gen: gpu.K80}}, retired
		},
	}
	for name, bad := range cases {
		inner := fair()
		var sim *Sim
		var unknown *job.Job
		policy := &badPolicy{executed: inner.Executed, finished: inner.JobFinished}
		policy.decide = func(st *RoundState) Decision {
			if len(sim.finished) == 0 {
				return inner.Decide(st)
			}
			retired = sim.finished[0]
			var run []placement.Request
			run, unknown = bad(st)
			return Decision{Run: run}
		}
		sim, err = New(cfg, policy)
		if err != nil {
			t.Fatal(err)
		}
		_, err := sim.Run(simclock.Time(4 * simclock.Hour))
		if unknown == nil {
			t.Fatalf("%s: the run ended before a job had retired", name)
		}
		if want := fmt.Sprintf("core: policy scheduled unknown job %d", unknown.ID); err == nil || err.Error() != want {
			t.Errorf("%s job in Decision.Run: got %v, want %q", name, err, want)
		}
	}
}

func TestNoMigrationAblationRuns(t *testing.T) {
	var specs []job.Spec
	specs = append(specs, workload.BatchJobs("a", zoo.MustGet("vae"), 6, 1, 50)...)
	specs = append(specs, workload.BatchJobs("b", zoo.MustGet("resnext50"), 6, 1, 50)...)
	specs, _ = workload.AssignIDs(specs)
	res := runFair(t, Config{
		Cluster:          mixedCluster(),
		Specs:            specs,
		DisableMigration: true,
		Seed:             12,
	}, FairConfig{EnableTrading: true}, simclock.Time(10*simclock.Hour))
	if res.Migrations != 0 {
		t.Fatalf("migrations = %d with migration disabled", res.Migrations)
	}
}

func TestBigGangNoStarvationEndToEnd(t *testing.T) {
	// One user with a full-cluster 8-GPU gang vs one with eight
	// 1-GPU jobs: the credit mechanism must deliver ≈half the GPU
	// time to each despite the gang never fitting alongside anything.
	var specs []job.Spec
	specs = append(specs, workload.BatchJobs("big", zoo.MustGet("resnet50"), 1, 8, 300)...)
	specs = append(specs, workload.BatchJobs("small", zoo.MustGet("vae"), 8, 1, 300)...)
	specs, _ = workload.AssignIDs(specs)
	res := runFair(t, Config{Cluster: k80Cluster(2, 4), Specs: specs, Seed: 13},
		FairConfig{}, simclock.Time(24*simclock.Hour))
	sh := shares(res)
	if math.Abs(sh["big"]-0.5) > 0.06 || math.Abs(sh["small"]-0.5) > 0.06 {
		t.Fatalf("shares = %v, want ≈0.5 each", sh)
	}
}

func TestTraceLogPopulated(t *testing.T) {
	specs := workload.BatchJobs("u", zoo.MustGet("dcgan"), 2, 1, 0.5)
	specs, _ = workload.AssignIDs(specs)
	res := runFair(t, Config{Cluster: k80Cluster(1, 2), Specs: specs, Seed: 14},
		FairConfig{}, simclock.Time(4*simclock.Hour))
	if n := len(res.Log.Filter("arrival")); n != 2 {
		t.Errorf("%d arrival events, want 2", n)
	}
	if n := len(res.Log.Filter("finish")); n != 2 {
		t.Errorf("%d finish events, want 2", n)
	}
	if n := len(res.Log.Filter("start")); n == 0 {
		t.Error("no start events")
	}
}
