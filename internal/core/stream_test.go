package core

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/span"
	"repro/internal/placement"
	"repro/internal/simclock"
	"repro/internal/trace"
	"repro/internal/workload"
)

// everyKindConfig is a small trading cluster under the full fault
// stack: two days of it fire every event kind the local engine has.
func everyKindConfig() Config {
	var specs []job.Spec
	specs = append(specs, workload.BatchJobs("a", zoo.MustGet("resnet50"), 6, 1, 6)...)
	specs = append(specs, workload.BatchJobs("b", zoo.MustGet("vae"), 6, 2, 6)...)
	specs = append(specs, workload.BatchJobs("c", zoo.MustGet("lstm"), 5, 1, 6)...)
	specs, _ = workload.AssignIDs(specs)
	return Config{
		Cluster: mixedCluster(),
		Specs:   specs,
		Seed:    11,
		Faults: &faults.Config{
			ServerMTBFHours:        8,
			ServerOutageMeanHours:  0.75,
			FlakyServers:           1,
			FlakyMTBFHours:         0.5,
			FlakyOutageMinutes:     8,
			DegradeMTBFHours:       6,
			MigrationFailProb:      0.4,
			JobCrashMTBFHours:      6,
			QuarantineFailures:     2,
			QuarantineWindowHours:  2,
			QuarantineCooloffHours: 2,
		},
	}
}

// TestEveryKindReachesEachSinkOnce runs the every-kind scenario with
// all three sinks attached and holds them to one another: whatever the
// stream recorded n times is n rows of the trace CSV, n on its counter
// and n entries across the flight snapshots.
func TestEveryKindReachesEachSinkOnce(t *testing.T) {
	o := obs.New()
	rec := flight.New(4096, filepath.Join(t.TempDir(), "flight.json"))
	cfg := everyKindConfig()
	cfg.Obs, cfg.Flight = o, rec
	res := runFair(t, cfg, FairConfig{EnableTrading: true}, simclock.Time(2*simclock.Day))

	var buf bytes.Buffer
	if err := res.Log.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	csvRows := map[string]int{}
	for _, r := range rows[1:] {
		csvRows[r[1]]++
	}
	inFlight := map[string]int{}
	for _, snap := range rec.Rounds() {
		inFlight["decision"] += len(snap.Decisions)
		inFlight["trade"] += len(snap.Trades)
		for _, d := range snap.Decisions {
			if d.Migrated {
				inFlight["moved"]++
			}
		}
		for _, e := range snap.Events {
			inFlight[e.Kind+"/"+e.Name]++
		}
	}
	if dropped := len(rec.Rounds()) - res.Rounds; dropped != 0 {
		t.Fatalf("flight window holds %d of %d rounds", len(rec.Rounds()), res.Rounds)
	}
	metric := func(name string, labels ...string) int { return int(o.Value(name, labels...)) }

	for _, tc := range []struct {
		kind    trace.Kind
		want    int // what the engine's own books say, where they count it
		counter int // -1: the kind has no counter
		flight  int // -1: the kind has no flight entry
	}{
		{trace.KindArrival, len(cfg.Specs), metric("gf_jobs_admitted_total"), -1},
		{trace.KindStart, csvRows["start"], -1, -1},
		{trace.KindFinish, len(res.Finished), metric("gf_jobs_finished_total"), -1},
		{trace.KindMigration, res.Migrations, metric("gf_migrations_total"), inFlight["moved"]},
		{trace.KindTrade, res.TradeCount, metric("gf_trades_total"), inFlight["trade"]},
		{trace.KindFailure, csvRows["failure"], metric("gf_faults_injected_total", "server-down"), inFlight["fault/server-down"]},
		{trace.KindRecovery, csvRows["recovery"], -1, -1},
		{trace.KindJobCrash, res.Crashes, metric("gf_faults_injected_total", "job-crash"), inFlight["fault/job-crash"]},
		{trace.KindMigFail, res.MigrationFailures, metric("gf_faults_injected_total", "migration-fail"), inFlight["fault/migration-fail"]},
		{trace.KindQuarantine, res.Quarantines, metric("gf_faults_injected_total", "quarantine"), inFlight["fault/quarantine"]},
		{trace.KindUnquarantine, res.Quarantines - metric("gf_servers_quarantined"), -1, -1},
		{trace.KindDegrade, csvRows["degrade"], metric("gf_faults_injected_total", "degrade"), inFlight["fault/degrade"]},
		{trace.KindDegradeEnd, csvRows["degrade-end"], -1, -1},
	} {
		if tc.want == 0 {
			t.Errorf("%s: the scenario never fired it", tc.kind)
		}
		if got := csvRows[string(tc.kind)]; got != tc.want {
			t.Errorf("%s: %d trace rows, want %d", tc.kind, got, tc.want)
		}
		if tc.counter >= 0 && tc.counter != tc.want {
			t.Errorf("%s: counter at %d, want %d", tc.kind, tc.counter, tc.want)
		}
		if tc.flight >= 0 && tc.flight != tc.want {
			t.Errorf("%s: %d flight entries, want %d", tc.kind, tc.flight, tc.want)
		}
	}

	// The kinds only the observer consumes: counted and snapshotted
	// once each, and absent from the trace.
	if n := metric("gf_decisions_total"); n == 0 || n != inFlight["decision"] {
		t.Errorf("decisions: counter %d, flight %d", n, inFlight["decision"])
	}
	if metric("gf_unplaced_total") == 0 {
		t.Error("unplaced: the scenario never fired it")
	}
	if got := o.Value("gf_comp_repaid_gpu_seconds_total"); got == 0 || got != res.CompRepaidGPUSeconds {
		t.Errorf("comp: counter %v, result %v", got, res.CompRepaidGPUSeconds)
	}
	for _, k := range []trace.Kind{trace.KindDecision, trace.KindUnplaced, trace.KindComp} {
		if csvRows[string(k)] != 0 {
			t.Errorf("%s: %d rows leaked into the trace", k, csvRows[string(k)])
		}
	}
	if len(rows)-1 != res.Log.Len() {
		t.Errorf("CSV has %d rows, log %d events", len(rows)-1, res.Log.Len())
	}
}

// TestMetricsSeriesGolden pins the /metrics surface: the sorted series
// names and label sets the every-kind scenario leaves behind are those
// of testdata/metrics_series.golden, written by the commit before the
// event stream existed (gf_build_info's labels name the toolchain and
// are left out).
func TestMetricsSeriesGolden(t *testing.T) {
	o := obs.New()
	cfg := everyKindConfig()
	cfg.Obs = o
	cfg.Flight = flight.New(0, filepath.Join(t.TempDir(), "flight.json"))
	runFair(t, cfg, FairConfig{EnableTrading: true}, simclock.Time(2*simclock.Day))
	var b strings.Builder
	if err := o.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var series []string
	for _, ln := range strings.Split(b.String(), "\n") {
		if ln == "" || strings.HasPrefix(ln, "#") || strings.HasPrefix(ln, "gf_build_info") {
			continue
		}
		series = append(series, ln[:strings.LastIndexByte(ln, ' ')])
	}
	sort.Strings(series)
	want, err := os.ReadFile("testdata/metrics_series.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(series, "\n") + "\n"; got != string(want) {
		t.Errorf("/metrics series changed:\n got %d series\nwant %d series\nfirst difference near %q",
			len(series), strings.Count(string(want), "\n"), firstDiff(got, string(want)))
	}
}

func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return al[i] + " | " + bl[i]
		}
	}
	return "(one is a prefix of the other)"
}

// TestFailingRoundIsInItsOwnFlightDump: a round the engine aborts — here
// on an over-committing decision — is still closed, so the dump the
// error leaves behind ends with that round, carrying what it recorded
// and a decide phase that was ended, not left open.
func TestFailingRoundIsInItsOwnFlightDump(t *testing.T) {
	specs := workload.BatchJobs("u", zoo.MustGet("vae"), 3, 1, 10)
	specs, _ = workload.AssignIDs(specs)
	path := filepath.Join(t.TempDir(), "flight.json")
	o := obs.New()
	tr := span.New("core-test", 0)
	o.SetTracer(tr)
	fair := MustNewFairPolicy(FairConfig{})
	const failAt = 3
	round := 0
	policy := &badPolicy{decide: func(st *RoundState) Decision {
		if round++; round < failAt {
			return fair.Decide(st)
		}
		var run []placement.Request
		for _, j := range st.Jobs {
			run = append(run, placement.Request{Job: j, Gen: gpu.K80})
		}
		return Decision{Run: run} // 3 > capacity 2
	}}
	sim, err := New(Config{Cluster: k80Cluster(1, 2), Specs: specs, Seed: 10,
		Obs: o, Flight: flight.New(8, path)}, policy)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(simclock.Time(simclock.Hour)); err == nil {
		t.Fatal("over-committing decision accepted")
	}
	d, err := flight.ReadDump(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Reason != "run-error" || len(d.Rounds) != failAt {
		t.Fatalf("dump: reason %q, %d rounds; want run-error, %d", d.Reason, len(d.Rounds), failAt)
	}
	last := d.Rounds[len(d.Rounds)-1]
	if last.Round != failAt {
		t.Fatalf("dump ends at round %d, want the failing round %d", last.Round, failAt)
	}
	if _, ok := last.Phases[string(obs.PhaseDecide)]; !ok {
		t.Errorf("failing round has no decide time: %v", last.Phases)
	}
	closed := false
	for _, s := range last.Spans {
		if s.Name == string(obs.PhaseDecide) && s.DurNs > 0 {
			closed = true
		}
	}
	if !closed {
		t.Errorf("failing round's decide span was left open: %+v", last.Spans)
	}
	if len(last.Decisions) != 0 || len(last.Shares) == 0 {
		t.Errorf("failing round: %d decisions (it placed nothing), %d share samples", len(last.Decisions), len(last.Shares))
	}
}

// TestObsOnRoundAllocCeiling pins what a steady-state round allocates
// with the whole observability stack on — observer, span tracer, flight
// recorder — over the same round with it off. The stream itself
// allocates nothing per event; the sinks' copies are a fixed number of
// blocks a round, so the tax must not grow with the number of jobs a
// round places.
func TestObsOnRoundAllocCeiling(t *testing.T) {
	const ceiling = 9 // 8 on go1.24 (9 under -race); the per-phase maps cost 16, the per-call surface before them 51
	perRound := func(jobsPerUser int, on bool) float64 {
		specs := workload.BatchJobs("a", zoo.MustGet("resnet50"), jobsPerUser, 1, 1e6)
		specs = append(specs, workload.BatchJobs("b", zoo.MustGet("vae"), jobsPerUser, 1, 1e6)...)
		specs, _ = workload.AssignIDs(specs)
		cfg := Config{Cluster: gpu.MustNew(
			gpu.Spec{Gen: gpu.K80, Servers: jobsPerUser / 4, GPUsPerSrv: 4},
			gpu.Spec{Gen: gpu.V100, Servers: jobsPerUser / 4, GPUsPerSrv: 4},
		), Specs: specs, Seed: 3}
		if on {
			cfg.Obs = obs.New()
			cfg.Obs.SetTracer(span.New("t", 0))
			cfg.Flight = flight.New(0, os.DevNull)
		}
		sim, err := New(cfg, MustNewFairPolicy(FairConfig{EnableTrading: true}))
		if err != nil {
			t.Fatal(err)
		}
		step := func() {
			if ran, err := sim.Step(simclock.Forever); !ran || err != nil {
				t.Fatalf("step: ran=%v err=%v", ran, err)
			}
		}
		for i := 0; i < 300; i++ { // past the flight window and every lazily grown buffer
			step()
		}
		return testing.AllocsPerRun(100, step)
	}
	for _, jobs := range []int{8, 64} {
		off, on := perRound(jobs, false), perRound(jobs, true)
		t.Logf("%d jobs: %.0f allocs/round off, %.0f on", 2*jobs, off, on)
		if tax := on - off; tax > ceiling {
			t.Errorf("%d jobs: observability costs %.0f allocs/round, ceiling %d", 2*jobs, tax, ceiling)
		}
	}
}
