package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/span"
	"repro/internal/workload"
)

// The three kinds of run a workload gets, each in its own process.
const (
	modeUntraced = "untraced" // roundClock only: the end-to-end metrics
	modeTraced   = "traced"   // harness-side spans, counts and probes: the per-layer metrics
	modeObs      = "obs"      // the engine's own Observer + span tracer + flight recorder
)

// rep is what one child process measured: one (workload, mode, seed)
// run. M holds every value by metric name; names outside the metric
// tables are rejected by the parent.
type rep struct {
	Workload  string             `json:"workload"`
	Mode      string             `json:"mode"`
	Seed      int64              `json:"seed"`
	Digest    string             `json:"digest"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	WallS     float64            `json:"wall_s"` // measured wall time of the run
	M         map[string]float64 `json:"m"`
	// GapsNs are the wall times between consecutive Decide entries; the
	// parent pools them over a workload's kept untraced reps before
	// taking percentiles.
	GapsNs []int64 `json:"gaps_ns,omitempty"`
}

func (r *rep) fail(n int, format string, args ...any) {
	r.Failed += n
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// measured brackets the timed call: heap settled before, allocation
// and GC counters read on both sides.
type measured struct {
	wall     time.Duration
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
	gcPause  uint64
	heapEnd  uint64
}

func measure(run func()) measured {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	run()
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	return measured{
		wall:     wall,
		mallocs:  m1.Mallocs - m0.Mallocs,
		bytes:    m1.TotalAlloc - m0.TotalAlloc,
		gcCycles: m1.NumGC - m0.NumGC,
		gcPause:  m1.PauseTotalNs - m0.PauseTotalNs,
		heapEnd:  m1.HeapInuse,
	}
}

// endToEndValues fills the metrics every workload reports the same
// way: speed, allocation per round, memory. The round-time percentiles
// come from GapsNs, in the parent.
func (r *rep) endToEndValues(setup time.Duration, m measured, simHours float64, rounds int, gaps []int64) {
	r.GapsNs = gaps
	r.WallS = m.wall.Seconds()
	r.M["setup_s"] = setup.Seconds()
	r.M["sim_hours_per_s"] = simHours / m.wall.Seconds()
	n := math.Max(1, float64(rounds))
	r.M["allocs_per_round"] = float64(m.mallocs) / n
	r.M["alloc_kb_per_round"] = float64(m.bytes) / 1024 / n
	r.M["peak_rss_mb"] = peakRSSMiB()
	r.M["core.rounds"] = float64(rounds)
	r.M["runtime.gc_cycles"] = float64(m.gcCycles)
	r.M["runtime.gc_pause_ms_total"] = float64(m.gcPause) / 1e6
	r.M["runtime.heap_inuse_mb_end"] = float64(m.heapEnd) / (1 << 20)
}

// peakRSSMiB reads the process's high-water resident set (VmHWM);
// 0 where /proc is unavailable.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// sinceMs is the elapsed time since t0 in milliseconds.
func sinceMs(t0 time.Time) float64 { return ms(time.Since(t0)) }

// buildLocal generates the cluster, the job trace and the engine
// config from the seed, timing each layer into m.
func buildLocal(sh shape, seed int64, m map[string]float64) (core.Config, error) {
	t := time.Now()
	cluster, err := gpu.New(sh.clusterSpecs()...)
	if err != nil {
		return core.Config{}, err
	}
	m["gpu.new_ms"] = sinceMs(t)

	t = time.Now()
	zoo := workload.DefaultZoo()
	specs, err := workload.Generate(zoo, workload.Config{
		Seed: seed, Users: sh.userSpecs(zoo), MaxK80Hours: sh.maxK80Hours,
	})
	if err != nil {
		return core.Config{}, err
	}
	m["workload.generate_ms"] = sinceMs(t)

	cfg := core.Config{
		Cluster: cluster, Specs: specs, Tickets: sh.tickets(),
		Quantum: quantum, Seed: seed, Audit: core.AuditStrict,
	}
	if sh.faults {
		cfg.Faults = faultConfig()
		cfg.Failures, cfg.TicketChanges = sh.declaredEvents(seed, cluster.NumServers())
	}
	return cfg, nil
}

// spanCap sizes a tracer for a whole run: five spans a round (the
// round, decide, executed and the harness's two counting spans), one
// per finished job, and slack.
func spanCap(rounds, jobs int) int { return 5*rounds + jobs + 1024 }

func fairPolicy() (core.Policy, error) {
	return core.NewFairPolicy(core.FairConfig{EnableTrading: true})
}

// instruments are the policy wrapper a mode calls for: the roundClock
// of an untraced or obs-on run, or the traced run's span decorator.
type instruments struct {
	policy core.Policy
	clock  *roundClock
	traced *tracedPolicy
	tracer *span.Tracer
}

func instrument(inner core.Policy, mode, proc string, rounds, spans int) instruments {
	if mode == modeTraced {
		tr := span.New(proc, spans)
		tp := newTracedPolicy(inner, tr, rounds)
		return instruments{policy: tp, traced: tp, tracer: tr}
	}
	c := newRoundClock(inner, rounds)
	return instruments{policy: c, clock: c}
}

// gaps are the untraced round times; nil in a traced run, whose
// rounds are spans.
func (in instruments) gaps() []int64 {
	if in.clock == nil {
		return nil
	}
	return gapsNs(in.clock.at)
}

// setupReps is how often one child sets up, so that setup_s is a
// median within a rep as well as over reps: a set-up is tens of
// milliseconds, and a single one is at the mercy of one page fault.
const setupReps = 3

// medianSetup runs prepare setupReps times and returns the median time
// of one call. What the last call prepared is what the rep runs;
// discard, when set, releases what an earlier call prepared.
func medianSetup(prepare func() error, discard func()) (time.Duration, error) {
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if i > 0 && discard != nil {
			discard()
		}
		start := time.Now()
		if err := prepare(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return time.Duration(median(times) * float64(time.Second)), nil
}

// runLocal is one rep of a local-engine workload.
func runLocal(sh shape, seed int64, mode, outDir string) (*rep, error) {
	r := &rep{Workload: sh.name, Mode: mode, Seed: seed, M: make(map[string]float64)}

	var (
		cfg core.Config
		ins instruments
		sim *core.Sim
	)
	setup, err := medianSetup(func() error {
		var err error
		if cfg, err = buildLocal(sh, seed, r.M); err != nil {
			return err
		}
		inner, err := fairPolicy()
		if err != nil {
			return err
		}
		ins = instrument(inner, mode, "gfperf", sh.rounds, spanCap(sh.rounds, len(cfg.Specs)))
		if mode == modeObs {
			o := obs.New()
			o.SetTracer(span.New("sim", 0))
			cfg.Obs = o
			cfg.Flight = flight.New(0, os.DevNull)
		}
		t := time.Now()
		sim, err = core.New(cfg, ins.policy)
		r.M["core.new_ms"] = sinceMs(t)
		return err
	}, nil)
	if err != nil {
		return nil, err
	}

	var res *core.Result
	var runErr error
	m := measure(func() { res, runErr = sim.Run(sh.horizon()) })
	if ins.traced != nil {
		ins.traced.finish()
	}
	if runErr != nil {
		// Under AuditStrict the first violation aborts the run.
		r.Attempted = sh.rounds
		r.fail(1, "run: %v", runErr)
		r.endToEndValues(setup, m, 0, 0, nil)
		return r, nil
	}

	r.Attempted = res.Rounds
	r.checkResult("", res, len(cfg.Specs))
	t := time.Now()
	r.Digest = core.CanonicalDigest(res)
	r.M["core.digest_ms"] = sinceMs(t)

	r.endToEndValues(setup, m, float64(res.End)/3600, res.Rounds, ins.gaps())
	r.M["share_err_max"] = res.MaxShareError()
	r.M["gpu_util"] = res.Utilization.Fraction()
	r.resultValues(res)
	r.zero(wireNames...)
	r.zero(sweepNames...)

	switch mode {
	case modeTraced:
		spans := ins.tracer.Spans()
		if d := ins.tracer.Dropped(); d > 0 {
			r.fail(1, "span ring dropped %d spans", d)
		}
		r.spanValues(analyzeSpans(spans), ins.traced.counts)
		if err := r.probePolicyLayers(ins.traced.probe); err != nil {
			return nil, err
		}
		if err := r.probeFaults(sh, seed, cfg); err != nil {
			return nil, err
		}
		if err := writeTrace(outDir, sh.name, spans); err != nil {
			return nil, err
		}
	case modeObs:
		r.phaseValues(res.PhaseTotalsSeconds, res.Rounds, m.wall)
	}
	return r, nil
}

// checkResult applies the per-run output checks to one Result: the
// auditor ran and found nothing, and every generated job is accounted
// for. where prefixes the message (a sweep point's label).
func (r *rep) checkResult(where string, res *core.Result, generated int) {
	switch {
	case res.Audit == nil:
		r.fail(1, "%sno audit report", where)
	case !res.Audit.Clean():
		r.fail(res.Audit.Total(), "%saudit not clean: %s", where, res.Audit.Summary())
	}
	if got := len(res.Finished) + res.Unfinished; got != generated {
		r.fail(abs(got-generated), "%sfinished %d + unfinished %d != generated %d",
			where, len(res.Finished), res.Unfinished, generated)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// resultValues copies the simulated outcomes a Result carries.
func (r *rep) resultValues(res *core.Result) {
	r.M["faults.crashes"] = float64(res.Crashes)
	r.M["faults.migration_failures"] = float64(res.MigrationFailures)
	r.M["faults.quarantines"] = float64(res.Quarantines)
	r.M["faults.comp_repaid_gpu_h"] = res.CompRepaidGPUSeconds / 3600
	r.M["metrics.jct_p50_h"] = res.SLO.JCT.Median / 3600
	r.M["metrics.jct_p99_h"] = res.SLO.JCT.P99 / 3600
	r.M["metrics.rho_max"] = res.SLO.RhoMax
	r.M["metrics.makespan_h"] = res.SLO.MakespanSeconds / 3600
}

// spanValues turns the traced run's spans and counts into the policy
// and engine metrics.
func (r *rep) spanValues(st spanStats, counts []roundCounts) {
	rounds := math.Max(1, float64(st.roundCount))
	decide := st.byName[spanDecide]
	r.M["policy.decide_ms_per_round"] = sum(decide) / rounds
	r.M["policy.decide_ms_p95"] = percentile(sortedCopy(decide), 0.95)
	r.M["policy.executed_ms_per_round"] = sum(st.byName[spanExecuted]) / rounds
	fin := st.byName[spanFinished]
	r.M["policy.job_finished_us_per_call"] = 1e3 * mean(fin)
	r.M["core.engine_self_ms_per_round"] = mean(st.selfMs)
	r.M["core.round_ms_p99"] = percentile(st.roundsMs, 0.99)
	r.M["core.round_ms_max"] = percentile(st.roundsMs, 1)

	var c roundCounts
	maxJobs := 0
	for _, rc := range counts {
		c.jobs += rc.jobs
		c.users += rc.users
		c.runReqs += rc.runReqs
		c.trades += rc.trades
		c.placed += rc.placed
		c.unplaced += rc.unplaced
		c.finished += rc.finished
		c.migras += rc.migras
		if rc.jobs > maxJobs {
			maxJobs = rc.jobs
		}
	}
	n := math.Max(1, float64(len(counts)))
	r.M["policy.trades_per_round"] = float64(c.trades) / n
	r.M["core.active_jobs_mean"] = float64(c.jobs) / n
	r.M["core.active_jobs_max"] = float64(maxJobs)
	r.M["core.active_users_mean"] = float64(c.users) / n
	r.M["core.run_reqs_per_round"] = float64(c.runReqs) / n
	r.M["core.placed_per_round"] = float64(c.placed) / n
	r.M["core.unplaced_per_round"] = float64(c.unplaced) / n
	r.M["core.placed_frac"] = float64(c.placed) / math.Max(1, float64(c.placed+c.unplaced))
	r.M["core.finished_per_round"] = float64(c.finished) / n
	r.M["core.migrations_per_round"] = float64(c.migras) / n
}

// nestedPhases run inside decide, so they are left out when summing
// what the phases cover. (The engine's own reference water-fill also
// books to waterfill and cannot be told apart in the totals; it stays
// in obs.unattributed.)
var nestedPhases = map[obs.Phase]bool{obs.PhaseWaterfill: true, obs.PhaseTrade: true}

// phaseValues reports the observer's phase totals per round and the
// part of the run's wall time no top-level phase covers.
func (r *rep) phaseValues(totals map[string]float64, rounds int, wall time.Duration) {
	n := math.Max(1, float64(rounds))
	covered := 0.0
	for _, p := range obs.AllPhases {
		r.M["obs.phase."+string(p)+"_ms_per_round"] = 1e3 * totals[string(p)] / n
		if !nestedPhases[p] {
			covered += totals[string(p)]
		}
	}
	r.M["obs.unattributed_ms_per_round"] = 1e3 * (wall.Seconds() - covered) / n
}

// Metric groups a workload kind has no layer for; it reports them as
// zero so every run emits every named metric.
var (
	// wireNames: comm and distrib, absent from local and sweep runs.
	wireNames = []string{
		"comm.seal_us_per_msg", "comm.verify_us_per_msg", "comm.tcp_rtt_us_p50",
		"comm.sends_per_round", "comm.bytes_per_round", "comm.plan_bytes_mean",
		"comm.report_bytes_mean", "comm.send_us_p50", "comm.send_us_p95",
		"distrib.dispatch_ms_per_round", "distrib.collect_wait_ms_per_round",
		"distrib.central_self_ms_per_round", "distrib.agent_exec_us_p50",
		"distrib.agent_exec_us_p95", "distrib.missed_reports",
	}
	// sweepNames: the grid path, absent from single runs.
	sweepNames = []string{
		"scenario.load_build_ms", "sweep.points", "sweep.points_per_s",
		"sweep.points_per_s_w1", "sweep.parallel_efficiency", "sweep.summarize_ms",
	}
	// simOnlyNames: what only core.Sim has — the fault model and the
	// SLO bundle — absent from the distributed central.
	simOnlyNames = []string{
		"gpu.new_ms", "faults.generate_ms", "faults.sweep_advance_us_per_round",
		"faults.crashes", "faults.migration_failures", "faults.quarantines",
		"faults.comp_repaid_gpu_h", "metrics.jct_p50_h", "metrics.jct_p99_h",
		"metrics.rho_max", "metrics.makespan_h",
	}
)

func (r *rep) zero(names ...string) {
	for _, n := range names {
		r.M[n] = 0
	}
}
