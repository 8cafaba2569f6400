package sweep

import (
	"context"
	"encoding/csv"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// testPoints builds n small, mutually independent points: two users on
// one 4-GPU K80 server, distinct seeds, strict audit.
func testPoints(n int) []Point {
	zoo := workload.DefaultZoo()
	points := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		seed := int64(i + 1)
		specs := workload.MustGenerate(zoo, workload.Config{
			Seed: seed,
			Users: []workload.UserSpec{
				{User: "a", NumJobs: 4, MeanK80Hours: 1, GangDist: []workload.GangWeight{{Gang: 1, Weight: 1}}},
				{User: "b", NumJobs: 4, MeanK80Hours: 1, GangDist: []workload.GangWeight{{Gang: 1, Weight: 1}}},
			},
			MaxK80Hours: 3,
		})
		points = append(points, Point{
			Label: fmt.Sprintf("fair/seed=%d", seed),
			Group: "fair",
			Config: core.Config{
				Cluster: gpu.MustNew(gpu.Spec{Gen: gpu.K80, Servers: 1, GPUsPerSrv: 4}),
				Specs:   specs,
				Seed:    seed,
			},
			Policy:  func() (core.Policy, error) { return core.NewFairPolicy(core.FairConfig{}) },
			Horizon: simclock.Time(12 * simclock.Hour),
		})
	}
	return points
}

// TestRunDeterministicOrdering checks that results come back in point
// order with identical contents regardless of worker count.
func TestRunDeterministicOrdering(t *testing.T) {
	points := testPoints(6)
	serial := Run(context.Background(), points, Options{Workers: 1})
	parallel := Run(context.Background(), points, Options{Workers: 4})
	if len(serial) != len(points) || len(parallel) != len(points) {
		t.Fatalf("result lengths %d/%d, want %d", len(serial), len(parallel), len(points))
	}
	for i := range points {
		s, p := serial[i], parallel[i]
		if s.Err != nil || p.Err != nil {
			t.Fatalf("point %d errored: serial=%v parallel=%v", i, s.Err, p.Err)
		}
		if s.Index != i || p.Index != i || s.Label != points[i].Label {
			t.Fatalf("point %d out of order: serial index %d label %q", i, s.Index, s.Label)
		}
		if s.Result.Rounds != p.Result.Rounds ||
			len(s.Result.Finished) != len(p.Result.Finished) ||
			math.Abs(s.Result.MaxShareError()-p.Result.MaxShareError()) > 1e-12 ||
			math.Abs(s.Result.Utilization.Fraction()-p.Result.Utilization.Fraction()) > 1e-12 {
			t.Errorf("point %d diverges between worker counts", i)
		}
		if s.Result.Audit == nil || !s.Result.Audit.Clean() {
			t.Errorf("point %d audit not clean: %v", i, s.Result.Audit)
		}
	}
}

// panicPolicy blows up in Decide to exercise panic capture.
type panicPolicy struct{}

func (panicPolicy) Name() string                          { return "panic" }
func (panicPolicy) Decide(*core.RoundState) core.Decision { panic("boom") }
func (panicPolicy) Executed(*core.ExecReport)             {}
func (panicPolicy) JobFinished(job.ID)                    {}

func TestRunCapturesPanics(t *testing.T) {
	points := testPoints(3)
	points[1].Policy = func() (core.Policy, error) { return panicPolicy{}, nil }
	points[1].Label = "panics"
	results := Run(context.Background(), points, Options{Workers: 2})
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("healthy points failed: %v / %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "panicked: boom") {
		t.Fatalf("panic not captured: %v", results[1].Err)
	}
	if results[1].Result != nil {
		t.Fatal("panicked point returned a result")
	}
}

func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := Run(ctx, testPoints(4), Options{Workers: 2})
	for i, r := range results {
		if r.Err == nil {
			t.Errorf("point %d ran despite cancelled context", i)
		}
	}
}

func TestRunErrorIsolation(t *testing.T) {
	points := testPoints(3)
	points[0].Config.Cluster = nil // invalid config
	points[2].Policy = nil         // missing factory
	results := Run(context.Background(), points, Options{})
	if results[0].Err == nil || results[2].Err == nil {
		t.Fatal("invalid points did not error")
	}
	if results[1].Err != nil {
		t.Fatalf("valid point failed: %v", results[1].Err)
	}
}

func TestSummarize(t *testing.T) {
	points := testPoints(5)
	points = append(points, Point{Label: "broken", Group: "broken"}) // no policy
	results := Run(context.Background(), points, Options{})
	sum := Summarize(results)
	if len(sum.Groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(sum.Groups))
	}
	fair := sum.Groups[0]
	if fair.Group != "fair" || fair.Runs != 5 || fair.Errors != 0 {
		t.Fatalf("fair group = %+v", fair)
	}
	if fair.JCT.N == 0 || fair.JCT.Mean <= 0 || fair.JCT.P50 > fair.JCT.P99 {
		t.Errorf("JCT dist malformed: %+v", fair.JCT)
	}
	if fair.Utilization.Mean <= 0 || fair.Utilization.Mean > 1 {
		t.Errorf("utilization mean %v outside (0,1]", fair.Utilization.Mean)
	}
	if fair.AuditViolations != 0 {
		t.Errorf("audit violations = %d", fair.AuditViolations)
	}
	broken := sum.Groups[1]
	if broken.Group != "broken" || broken.Errors != 1 || broken.Runs != 0 {
		t.Fatalf("broken group = %+v", broken)
	}
	var b strings.Builder
	if err := sum.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "fair") || !strings.Contains(out, "clean") {
		t.Errorf("render missing content:\n%s", out)
	}
}

func TestDistOf(t *testing.T) {
	if d := DistOf(nil); d.N != 0 || d.Mean != 0 {
		t.Errorf("empty dist = %+v", d)
	}
	d := DistOf([]float64{4})
	if d.N != 1 || d.Mean != 4 || d.P50 != 4 || d.P99 != 4 || d.Min != 4 || d.Max != 4 {
		t.Errorf("singleton dist = %+v", d)
	}
	d = DistOf([]float64{3, 1, 2})
	if d.N != 3 || math.Abs(d.Mean-2) > 1e-12 || d.P50 != 2 || d.Min != 1 || d.Max != 3 {
		t.Errorf("dist = %+v", d)
	}
	if d.P99 < d.P50 || d.P99 > d.Max {
		t.Errorf("p99 %v outside [p50, max]", d.P99)
	}
}

func TestGridPoints(t *testing.T) {
	gridJSON := `{
		"scenario": {
			"cluster": [{"gen": "K80", "servers": 1, "gpus_per_server": 4}],
			"users": [
				{"name": "a", "jobs": 4, "mean_k80_hours": 1, "gangs": [{"gang": 1, "weight": 1}]},
				{"name": "b", "jobs": 4, "mean_k80_hours": 1, "gangs": [{"gang": 1, "weight": 1}]}
			],
			"horizon_hours": 8
		},
		"policies": ["gandiva-fair", "tiresias", "fifo"],
		"seeds": [1, 2, 3, 4, 5]
	}`
	grid, err := LoadGrid(strings.NewReader(gridJSON))
	if err != nil {
		t.Fatal(err)
	}
	points, err := grid.Points(core.AuditStrict)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 15 {
		t.Fatalf("points = %d, want 3 policies × 5 seeds = 15", len(points))
	}
	if points[0].Group != "gandiva-fair-no-trade" || points[5].Group != "tiresias-l" {
		t.Errorf("groups = %q, %q", points[0].Group, points[5].Group)
	}
	if points[0].Config.Seed != 1 || points[4].Config.Seed != 5 {
		t.Errorf("seeds not threaded: %d, %d", points[0].Config.Seed, points[4].Config.Seed)
	}
	results := Run(context.Background(), points, Options{})
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Label, r.Err)
		}
	}
	sum := Summarize(results)
	if len(sum.Groups) != 3 {
		t.Fatalf("summary groups = %d, want 3", len(sum.Groups))
	}
	for _, g := range sum.Groups {
		if g.Runs != 5 {
			t.Errorf("group %s runs = %d, want 5", g.Group, g.Runs)
		}
	}
}

// specValue is a spec with its profile by value: two generations of
// one trace draw from two zoos, so their Perf pointers differ.
type specValue struct {
	spec job.Spec
	perf job.Perf
}

func specValues(specs []job.Spec) []specValue {
	out := make([]specValue, len(specs))
	for i, s := range specs {
		out[i] = specValue{s, *s.Perf}
		out[i].spec.Perf = nil
	}
	return out
}

// TestPointsShareEachSeedsTrace checks that Points generates each
// seed's workload once: the points of one seed, one per policy, share
// one backing array, equal to what a fresh Build of that point
// generates. A sweep over them with 2 workers leaves the shared specs
// as they were and gives every point the digest of an unshared build.
func TestPointsShareEachSeedsTrace(t *testing.T) {
	grid, err := LoadGrid(strings.NewReader(`{
		"scenario": {
			"cluster": [{"gen": "K80", "servers": 1, "gpus_per_server": 4},
			            {"gen": "V100", "servers": 1, "gpus_per_server": 4}],
			"users": [
				{"name": "a", "jobs": 6, "arrivals_per_hour": 2, "mean_k80_hours": 1, "gangs": [{"gang": 1, "weight": 2}, {"gang": 2, "weight": 1}]},
				{"name": "b", "jobs": 6, "mean_k80_hours": 1, "gangs": [{"gang": 1, "weight": 1}]}
			],
			"trading": true,
			"horizon_hours": 6
		},
		"policies": ["gandiva-fair", "tiresias", "static"],
		"seeds": [3, 4]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	points, err := grid.Points(core.AuditStrict)
	if err != nil {
		t.Fatal(err)
	}
	const seeds = 2
	if len(points) != 3*seeds {
		t.Fatalf("points = %d, want 3 policies × 2 seeds", len(points))
	}
	var unshared []Point
	before := make([][]specValue, seeds)
	for i, p := range points {
		seed := i % seeds
		specs := p.Config.Specs
		if &specs[0] != &points[seed].Config.Specs[0] || len(specs) != len(points[seed].Config.Specs) {
			t.Errorf("%s: specs not shared with %s", p.Label, points[seed].Label)
		}
		if i < seeds {
			before[seed] = specValues(specs)
			if i > 0 && &specs[0] == &points[0].Config.Specs[0] {
				t.Errorf("%s shares %s's specs", p.Label, points[0].Label)
			}
		}
		sc := grid.Scenario
		sc.Policy, sc.Seed = grid.Policies[i/seeds], grid.Seeds[seed]
		cfg, policy, horizon, err := sc.Build()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(specValues(cfg.Specs), specValues(specs)) {
			t.Errorf("%s: shared specs differ from a fresh Build's", p.Label)
		}
		cfg.Audit = core.AuditStrict
		unshared = append(unshared, Point{
			Label: p.Label, Config: cfg, Horizon: horizon,
			Policy: func() (core.Policy, error) { return policy, nil },
		})
	}

	got := Run(context.Background(), points, Options{Workers: 2})
	want := Run(context.Background(), unshared, Options{Workers: 1})
	for i := range points {
		if got[i].Err != nil || want[i].Err != nil {
			t.Fatalf("%s: %v / %v", points[i].Label, got[i].Err, want[i].Err)
		}
		if g, w := core.CanonicalDigest(got[i].Result), core.CanonicalDigest(want[i].Result); g != w {
			t.Errorf("%s: digest %s, unshared build %s", points[i].Label, g, w)
		}
	}
	for seed := range before {
		if !slices.Equal(specValues(points[seed].Config.Specs), before[seed]) {
			t.Errorf("seed %d: the sweep wrote its shared specs", grid.Seeds[seed])
		}
	}
}

func TestGridRejectsUnknownFieldsAndBadPolicies(t *testing.T) {
	if _, err := LoadGrid(strings.NewReader(`{"nope": 1}`)); err == nil {
		t.Error("unknown top-level field accepted")
	}
	grid, err := LoadGrid(strings.NewReader(`{
		"scenario": {
			"users": [{"name": "a", "jobs": 1}],
			"horizon_hours": 1
		},
		"policies": ["no-such-policy"],
		"seeds": [1]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := grid.Points(core.AuditStrict); err == nil {
		t.Error("unknown policy accepted")
	}
}

// TestProfileAddsPhaseColumns checks the Profile option: phase timing
// distributions are aggregated per group and surfaced as table
// columns, while unprofiled sweeps keep the original table shape and
// identical simulation outcomes.
func TestProfileAddsPhaseColumns(t *testing.T) {
	points := testPoints(3)
	plain := Run(context.Background(), points, Options{Workers: 2})
	prof := Run(context.Background(), points, Options{Workers: 2, Profile: true})

	for i := range points {
		if plain[i].Err != nil || prof[i].Err != nil {
			t.Fatalf("point %d errored: %v / %v", i, plain[i].Err, prof[i].Err)
		}
		// Profiling must not perturb outcomes.
		if a, b := plain[i].Result.Rounds, prof[i].Result.Rounds; a != b {
			t.Errorf("point %d rounds %d != %d with profiling", i, a, b)
		}
		if a, b := len(plain[i].Result.Finished), len(prof[i].Result.Finished); a != b {
			t.Errorf("point %d finished %d != %d with profiling", i, a, b)
		}
		if plain[i].Result.PhaseTotalsSeconds != nil {
			t.Error("unprofiled run has phase totals")
		}
		if prof[i].Result.PhaseTotalsSeconds == nil {
			t.Error("profiled run missing phase totals")
		}
	}

	var plainTbl, profTbl strings.Builder
	if err := Summarize(plain).Render(&plainTbl); err != nil {
		t.Fatal(err)
	}
	if err := Summarize(prof).Render(&profTbl); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plainTbl.String(), "execute ms") {
		t.Error("unprofiled table grew phase columns")
	}
	for _, col := range []string{"decide ms", "placement ms", "execute ms"} {
		if !strings.Contains(profTbl.String(), col) {
			t.Errorf("profiled table missing column %q:\n%s", col, profTbl.String())
		}
	}
	g := Summarize(prof).Groups[0]
	if g.PhaseMsPerRound == nil || g.PhaseMsPerRound["execute"].N != 3 {
		t.Errorf("phase dist not aggregated across runs: %+v", g.PhaseMsPerRound)
	}
}

// TestSummarizeSLOAndCSV pins the fairness-SLO aggregation (ρ,
// makespan) and the machine-readable CSV export: every run carries a
// finite positive worst-user ρ (underloaded clusters can beat the
// 1/n ideal, so ρ < 1 is legitimate) and a positive makespan, and the CSV grows
// one row per group under a stable header.
func TestSummarizeSLOAndCSV(t *testing.T) {
	results := Run(context.Background(), testPoints(3), Options{})
	sum := Summarize(results)
	g := sum.Groups[0]
	if g.RhoMax.N != 3 || g.RhoMax.Mean <= 0 || math.IsInf(g.RhoMax.Mean, 0) {
		t.Errorf("rho max dist malformed: %+v", g.RhoMax)
	}
	if g.Makespan.N != 3 || g.Makespan.Mean <= 0 {
		t.Errorf("makespan dist malformed: %+v", g.Makespan)
	}
	if g.JCT.P50 > g.JCT.P95 || g.JCT.P95 > g.JCT.P99 {
		t.Errorf("JCT quantiles out of order: %+v", g.JCT)
	}

	var b strings.Builder
	if err := sum.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatalf("summary CSV not parseable: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want header + 1 group", len(rows))
	}
	want := []string{"group", "runs", "errors", "finished_mean",
		"jct_mean_s", "jct_p50_s", "jct_p95_s", "jct_p99_s",
		"rho_max_mean", "rho_max_worst", "makespan_mean_s",
		"share_err_mean", "util_mean", "migrations_mean", "trades_mean",
		"audit_violations"}
	for i, col := range want {
		if rows[0][i] != col {
			t.Fatalf("header[%d] = %q, want %q", i, rows[0][i], col)
		}
	}
	if rows[1][0] != "fair" {
		t.Errorf("group cell = %q", rows[1][0])
	}
	rho, err := strconv.ParseFloat(rows[1][8], 64)
	if err != nil || rho <= 0 {
		t.Errorf("rho_max_mean cell %q bad (err %v)", rows[1][8], err)
	}
}
