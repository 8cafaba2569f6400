// Command gfsim runs one cluster-scheduling scenario and reports
// fairness and efficiency metrics; optionally it dumps the event
// trace as CSV or JSON for offline analysis.
//
// Usage:
//
//	gfsim -policy gandiva-fair -users 6 -jobs 40 -hours 48
//	gfsim -policy tiresias -cluster k80=12x4,v100=12x4 -trace-out run.csv
//	gfsim -policy gandiva-fair -no-trading -quantum 60
//	gfsim -scenario scenarios/trading.json
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/span"
	"repro/internal/scenario"
	"repro/internal/simclock"
	"repro/internal/workload"
)

func main() {
	var (
		policyName = flag.String("policy", "gandiva-fair", "gandiva-fair | tiresias | gandiva-rr | static | fifo")
		noTrading  = flag.Bool("no-trading", false, "disable resource trading (gandiva-fair only)")
		clusterStr = flag.String("cluster", "default200", `inventory, e.g. "k80=12x4,v100=12x4" (servers x GPUs), or "default200"`)
		users      = flag.Int("users", 6, "number of users")
		jobs       = flag.Int("jobs", 40, "jobs per user")
		arrival    = flag.Float64("arrival", 2, "job arrivals per hour per user (0 = all at t=0)")
		meanHours  = flag.Float64("mean-hours", 4, "mean standalone K80 runtime per job")
		hours      = flag.Float64("hours", 48, "simulation horizon in hours")
		quantum    = flag.Float64("quantum", 360, "scheduling quantum in seconds")
		seed       = flag.Int64("seed", 1, "deterministic seed")
		noMigrate  = flag.Bool("no-migration", false, "pin jobs to their first servers")
		traceOut   = flag.String("trace-out", "", "write the event trace to this file (.csv or .json)")
		traceCap   = flag.Int("trace-cap", 0, "keep only the newest N trace events (0 = unbounded)")
		jobsIn     = flag.String("jobs-in", "", "load the job trace from this CSV (as written by gftrace) instead of generating one")
		scenarioIn = flag.String("scenario", "", "load the ENTIRE scenario (cluster, users, policy, failures) from this JSON file; other flags are ignored")
		httpAddr   = flag.String("http", "", "serve /metrics, /healthz, /debug/sched on this address while the simulation runs")
		pprofOn    = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the -http address")
		flightOut  = flag.String("flight", "", "arm the flight recorder; dumps the last rounds to this file on audit violation, run error, panic, or SIGUSR1")
		flightN    = flag.Int("flight-rounds", 0, "flight recorder window in rounds (0 = default 64)")
		auditDrill = flag.Int("audit-drill", 0, "inject a synthetic audit violation at this round to exercise the flight-dump path (0 = off)")
		spansOut   = flag.String("spans-out", "", "write the final rounds' spans as Chrome trace_event JSON (open in Perfetto / chrome://tracing)")
		spansCap   = flag.Int("spans-cap", 0, "span ring capacity (0 = default 8192)")
	)
	flag.Parse()

	// Observability never touches stdout: the report must stay
	// byte-identical with and without -http/-flight/-spans-out
	// (determinism guarantee, pinned by TestSpansAndFlightDoNotPerturb).
	observer, tracer, rec := startObs(obsFlags{
		addr: *httpAddr, pprof: *pprofOn,
		flightPath: *flightOut, flightRounds: *flightN,
		spans: *spansOut != "" || *flightOut != "", spansCap: *spansCap,
	})
	rec.DumpOnSignal(func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	})

	// run simulates cfg under the command line's trace and
	// observability options and prints the report.
	run := func(cfg core.Config, policy core.Policy, horizon simclock.Time, users []job.UserID) {
		cfg.TraceCap, cfg.Obs, cfg.Flight, cfg.AuditDrillRound = *traceCap, observer, rec, *auditDrill
		sim, err := core.New(cfg, policy)
		if err != nil {
			fatal(err)
		}
		res, err := sim.Run(horizon)
		if err != nil {
			fatal(err)
		}
		report(res, users, cfg.Faults != nil || len(cfg.Failures) > 0)
		reportPhases(res)
		if *traceOut != "" {
			if err := writeTrace(res, *traceOut); err != nil {
				fatal(err)
			}
			fmt.Printf("\nevent trace (%d events) written to %s\n", res.Log.Len(), *traceOut)
		}
		writeSpans(tracer, *spansOut)
	}

	if *scenarioIn != "" {
		cfg, policy, horizon := loadScenario(*scenarioIn)
		run(cfg, policy, horizon, usersOf(cfg.Specs))
		return
	}

	cluster, err := parseCluster(*clusterStr)
	if err != nil {
		fatal(err)
	}

	zoo := workload.DefaultZoo()
	var userSpecs []workload.UserSpec
	var userIDs []job.UserID
	names := zoo.Names()
	for i := 0; i < *users; i++ {
		u := job.UserID(fmt.Sprintf("user%02d", i+1))
		userIDs = append(userIDs, u)
		// Each user leans on a distinct slice of the zoo so the
		// speedup spread that trading exploits is present.
		models := []string{names[i%len(names)], names[(i+3)%len(names)]}
		userSpecs = append(userSpecs, workload.UserSpec{
			User: u, NumJobs: *jobs, ArrivalRatePerHour: *arrival,
			Models: models, MeanK80Hours: *meanHours,
		})
	}
	var specs []job.Spec
	if *jobsIn != "" {
		f, err := os.Open(*jobsIn)
		if err != nil {
			fatal(err)
		}
		specs, err = workload.ReadCSV(f, zoo)
		_ = f.Close() // read-only; nothing to recover from a close error
		if err != nil {
			fatal(err)
		}
		userIDs = usersOf(specs)
	} else {
		var err error
		specs, err = workload.Generate(zoo, workload.Config{Seed: *seed, Users: userSpecs})
		if err != nil {
			fatal(err)
		}
	}

	policy, err := makePolicy(*policyName, !*noTrading, userIDs)
	if err != nil {
		fatal(err)
	}
	run(core.Config{
		Cluster:          cluster,
		Specs:            specs,
		Quantum:          *quantum,
		Seed:             *seed,
		DisableMigration: *noMigrate,
	}, policy, simclock.Time(*hours*simclock.Hour), userIDs)
}

// obsFlags bundles the observability command-line surface.
type obsFlags struct {
	addr         string
	pprof        bool
	flightPath   string
	flightRounds int
	spans        bool
	spansCap     int
}

// startObs attaches the observability surfaces requested by flags:
// the HTTP mux (optionally with pprof and the flight recorder), a
// span tracer, and the flight recorder itself. All terminal output
// goes to stderr so stdout stays byte-identical.
func startObs(f obsFlags) (*obs.Observer, *span.Tracer, *flight.Recorder) {
	if f.addr == "" && !f.spans && f.flightPath == "" {
		return nil, nil, nil
	}
	o := obs.New()
	var tracer *span.Tracer
	if f.spans {
		tracer = span.New("gfsim", f.spansCap)
		o.SetTracer(tracer)
	}
	var rec *flight.Recorder
	if f.flightPath != "" {
		window := f.flightRounds
		if window <= 0 {
			window = flight.DefaultRounds
		}
		rec = flight.New(f.flightRounds, f.flightPath)
		fmt.Fprintf(os.Stderr, "flight recorder armed (window %d rounds, dump -> %s)\n",
			window, rec.Path())
	}
	if f.addr != "" {
		opt := obs.MuxOptions{PProf: f.pprof}
		if rec != nil {
			opt.Flight = rec
		}
		_, bound, err := obs.Serve(f.addr, o, opt)
		if err != nil {
			fatal(err)
		}
		surfaces := "/metrics /healthz /debug/sched"
		if rec != nil {
			surfaces += " /debug/flight"
		}
		if f.pprof {
			surfaces += " /debug/pprof"
		}
		fmt.Fprintf(os.Stderr, "observability on http://%s (%s)\n", bound, surfaces)
	}
	return o, tracer, rec
}

// writeSpans exports the tracer's retained spans as Chrome
// trace_event JSON for Perfetto / chrome://tracing.
func writeSpans(tr *span.Tracer, path string) {
	if tr == nil || path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	err = tr.WriteChromeTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "spans (%d retained, %d dropped) written to %s\n",
		len(tr.Spans()), tr.Dropped(), path)
}

// loadScenario builds the simulation a JSON scenario file describes.
func loadScenario(path string) (core.Config, core.Policy, simclock.Time) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	sc, err := scenario.Load(f)
	_ = f.Close() // read-only; nothing to recover from a close error
	if err != nil {
		fatal(err)
	}
	cfg, policy, horizon, err := sc.Build()
	if err != nil {
		fatal(err)
	}
	return cfg, policy, horizon
}

// usersOf lists the users of a workload in order of first appearance.
func usersOf(specs []job.Spec) []job.UserID {
	var users []job.UserID
	seen := map[job.UserID]bool{}
	for _, sp := range specs {
		if !seen[sp.User] {
			seen[sp.User] = true
			users = append(users, sp.User)
		}
	}
	return users
}

func parseCluster(s string) (*gpu.Cluster, error) {
	if s == "default200" {
		return gpu.Default200(), nil
	}
	var specs []gpu.Spec
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad cluster element %q (want gen=SERVERSxGPUS)", part)
		}
		gen, err := gpu.ParseGeneration(strings.ToUpper(strings.TrimSpace(kv[0])))
		if err != nil {
			return nil, err
		}
		dims := strings.SplitN(kv[1], "x", 2)
		if len(dims) != 2 {
			return nil, fmt.Errorf("bad cluster shape %q (want SERVERSxGPUS)", kv[1])
		}
		srv, err1 := strconv.Atoi(dims[0])
		gpus, err2 := strconv.Atoi(dims[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad cluster shape %q", kv[1])
		}
		specs = append(specs, gpu.Spec{Gen: gen, Servers: srv, GPUsPerSrv: gpus})
	}
	return gpu.New(specs...)
}

// makePolicy builds the named policy through the scenarios' one
// constructor; users is the static quota's holder order.
func makePolicy(name string, trading bool, users []job.UserID) (core.Policy, error) {
	return scenario.NewPolicy(name, core.FairConfig{EnableTrading: trading}, users)
}

// report prints the run's summary; faulty adds the fault-model and
// compensation lines, for a run that modelled or declared faults.
func report(res *core.Result, users []job.UserID, faulty bool) {
	fmt.Printf("policy      : %s\n", res.Policy)
	fmt.Printf("rounds      : %d (simulated %.1f h)\n", res.Rounds, float64(res.End)/3600)
	fmt.Printf("jobs        : %d finished, %d unfinished\n", len(res.Finished), res.Unfinished)
	st := metrics.Summarize(res.JCTs())
	if st.N > 0 {
		fmt.Printf("JCT         : mean %.1f h, median %.1f h, p95 %.1f h\n",
			st.Mean/3600, st.Median/3600, st.P95/3600)
	}
	fmt.Printf("utilization : %.1f%%\n", 100*res.Utilization.Fraction())
	for _, g := range gpu.Generations() {
		if u, ok := res.UtilByGen[g]; ok {
			fmt.Printf("  %-5v     : %.1f%%\n", g, 100*u.Fraction())
		}
	}
	fmt.Printf("migrations  : %d\n", res.Migrations)
	fmt.Printf("trades      : %d\n", res.TradeCount)
	if faulty {
		fmt.Printf("faults      : %d job crashes, %d failed migrations, %d quarantines\n",
			res.Crashes, res.MigrationFailures, res.Quarantines)
		debtors := make([]job.UserID, 0, len(res.CompDeficitByUser))
		for u := range res.CompDeficitByUser {
			debtors = append(debtors, u)
		}
		sort.Slice(debtors, func(i, j int) bool { return debtors[i] < debtors[j] })
		owed := 0.0
		for _, u := range debtors {
			owed += res.CompDeficitByUser[u]
		}
		fmt.Printf("compensation: %.1f GPU-h repaid, %.1f GPU-h outstanding\n",
			res.CompRepaidGPUSeconds/3600, owed/3600)
	}
	fmt.Printf("share error : %.1f%% (max deviation from water-filled entitlement)\n",
		100*res.MaxShareError())

	usage := res.TotalUsageByUser()
	ref := res.FairUsageByUser
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })
	fmt.Println("per-user GPU-hours (actual vs entitled):")
	for _, u := range users {
		fmt.Printf("  %-8s %8.0f %8.0f\n", u, usage[u]/3600, ref[u]/3600)
	}
}

// reportPhases prints per-phase scheduler timings to stderr (only
// present when an observer was attached via -http).
func reportPhases(res *core.Result) {
	if res.PhaseTotalsSeconds == nil || res.Rounds == 0 {
		return
	}
	fmt.Fprintln(os.Stderr, "scheduler phase cost (ms/round):")
	for _, p := range obs.AllPhases {
		if tot, ok := res.PhaseTotalsSeconds[string(p)]; ok {
			fmt.Fprintf(os.Stderr, "  %-10s %8.3f\n", p, 1e3*tot/float64(res.Rounds))
		}
	}
}

func writeTrace(res *core.Result, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".json") {
		return res.Log.WriteJSON(f)
	}
	return res.Log.WriteCSV(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gfsim:", err)
	os.Exit(1)
}
