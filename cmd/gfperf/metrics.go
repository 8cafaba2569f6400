package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/obs"
)

// metricDef names one metric the harness emits. The two tables below
// are the single source for BENCHMARK.json (see -manifest) and for the
// "every named metric is emitted and no unnamed one is" check.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: allowed relative worsening
}

// endToEnd are the metrics a user of the scheduler sees, the same set
// on every workload: medians over the least disturbed third of the
// run's reps, the round-time median over those reps' pooled rounds.
// Bounds are relative to the parent's median; each is at least three
// times the widest quartile spread any workload showed over ten seeds
// on a quiet box (bench/BASELINE.md), and the timings take the
// contract's maximum because the shared box has minutes-long slow
// phases. That is why they are looser than the issue's.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "sim_hours_per_s", Unit: "h/s", Better: "higher", Bound: 0.25},
	{Name: "round_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_round", Unit: "count", Better: "lower", Bound: 0.12},
	{Name: "alloc_kb_per_round", Unit: "KiB", Better: "lower", Bound: 0.15},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
	{Name: "gpu_util", Unit: "ratio", Better: "higher", Bound: 0.15},
}

// perLayer are the single-layer metrics, from the traced run, the
// obs-on run, the layer probes and the run's Result. They carry no
// bound; bench/README.md maps each to the end-to-end metric and the
// workload it should move.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lower := func(unit string, names ...string) []metricDef {
		out := make([]metricDef, len(names))
		for i, n := range names {
			out[i] = metricDef{Name: n, Unit: unit, Better: "lower"}
		}
		return out
	}
	higher := func(unit string, names ...string) []metricDef {
		out := lower(unit, names...)
		for i := range out {
			out[i].Better = "higher"
		}
		return out
	}
	var m []metricDef
	add := func(d ...metricDef) { m = append(m, d...) }

	// Demoted from the end-to-end list (see bench/BASELINE.md): always
	// zero on a correct run; a max over users that moves with the seed
	// by more than any bound the contract allows; a tail percentile the
	// box's slow phases push past its bound.
	add(lower("ratio", "failed_frac", "share_err_max")...)
	add(lower("ms", "round_ms_p90")...)

	// Set-up, layer by layer.
	add(lower("ms", "workload.generate_ms", "gpu.new_ms", "scenario.load_build_ms",
		"core.new_ms", "placement.index_build_ms", "faults.generate_ms")...)

	// Policy, from the core.Policy decorator's spans.
	add(lower("ms", "policy.decide_ms_per_round", "policy.decide_ms_p95", "policy.executed_ms_per_round")...)
	add(lower("us", "policy.job_finished_us_per_call")...)
	add(higher("count", "policy.trades_per_round")...)

	// Engine: the round span minus the policy's child spans, and the
	// counts taken at the same boundary.
	add(lower("ms", "core.engine_self_ms_per_round", "core.round_ms_p99", "core.round_ms_max")...)
	add(higher("count", "core.rounds", "core.active_jobs_mean", "core.active_jobs_max",
		"core.active_users_mean", "core.run_reqs_per_round", "core.placed_per_round")...)
	add(lower("count", "core.unplaced_per_round")...)
	add(higher("ratio", "core.placed_frac")...)
	add(higher("count", "core.finished_per_round")...)
	add(lower("count", "core.migrations_per_round")...)
	add(lower("ms", "core.digest_ms")...)

	// Layer probes at the workload's observed shape.
	add(lower("us", "fairshare.compute_us_per_call", "fairshare.alloc_solve_us_per_call",
		"fairshare.alloc_resolve_us_per_call", "trade.run_us_per_call")...)
	add(higher("count", "trade.trades_per_call")...)
	add(lower("us", "stride.select_us_per_call")...)
	add(lower("ms", "placement.place_ms_per_call", "placement.place_indexed_ms_per_call")...)
	add(lower("us", "faults.sweep_advance_us_per_round", "comm.seal_us_per_msg",
		"comm.verify_us_per_msg", "comm.tcp_rtt_us_p50")...)

	// Observer phases and what turning the observer on costs.
	for _, p := range obs.AllPhases {
		add(lower("ms", "obs.phase."+string(p)+"_ms_per_round")...)
	}
	add(lower("ms", "obs.unattributed_ms_per_round")...)
	add(lower("ratio", "obs.tax_time_ratio", "obs.tax_allocs_ratio")...)

	// Fault-model outcomes: simulated, so they repeat exactly.
	add(lower("count", "faults.crashes", "faults.migration_failures", "faults.quarantines")...)
	add(higher("GPU-h", "faults.comp_repaid_gpu_h")...)

	// Sweep.
	add(higher("count", "sweep.points")...)
	add(higher("1/s", "sweep.points_per_s", "sweep.points_per_s_w1")...)
	add(higher("ratio", "sweep.parallel_efficiency")...)
	add(lower("ms", "sweep.summarize_ms")...)

	// Wire and distributed runtime.
	add(lower("count", "comm.sends_per_round")...)
	add(lower("B", "comm.bytes_per_round", "comm.plan_bytes_mean", "comm.report_bytes_mean")...)
	add(lower("us", "comm.send_us_p50", "comm.send_us_p95")...)
	add(lower("ms", "distrib.dispatch_ms_per_round", "distrib.collect_wait_ms_per_round",
		"distrib.central_self_ms_per_round")...)
	add(lower("us", "distrib.agent_exec_us_p50", "distrib.agent_exec_us_p95")...)
	add(lower("count", "distrib.missed_reports")...)

	// Simulated service metrics (exact) and the Go runtime's view.
	add(lower("h", "metrics.jct_p50_h", "metrics.jct_p99_h")...)
	add(lower("ratio", "metrics.rho_max")...)
	add(lower("h", "metrics.makespan_h")...)
	add(lower("count", "runtime.gc_cycles")...)
	add(lower("ms", "runtime.gc_pause_ms_total")...)
	add(lower("MiB", "runtime.heap_inuse_mb_end")...)
	add(lower("ratio", "trace.overhead_ratio")...)
	return m
}

// exactMetrics must repeat bit for bit between two runs of one seed:
// they are simulated outcomes, not measurements.
var exactMetrics = []string{
	"share_err_max", "gpu_util",
	"faults.crashes", "faults.migration_failures", "faults.quarantines", "faults.comp_repaid_gpu_h",
	"metrics.jct_p50_h", "metrics.jct_p99_h", "metrics.rho_max", "metrics.makespan_h",
	"core.rounds", "sweep.points",
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []manifestWL `json:"workloads"`
	EndToEnd   []metricDef  `json:"end_to_end"`
	PerLayer   []metricDef  `json:"per_layer"` // no bound: the key is omitted
}

type manifestWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is how long one driver run measures.
const runSeconds = 12

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"cmd/gfperf", "bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, s := range shapes {
		m.Workloads = append(m.Workloads, manifestWL{Name: s.name, Why: s.why})
	}
	return m
}

func manifestJSON() ([]byte, error) {
	b, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// reported is one metric value in the result line's "metrics" object.
type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// unnamed lists values whose name is in neither metric table.
func unnamed(vals map[string]float64) []string {
	known := make(map[string]bool, len(endToEnd)+len(perLayer))
	for _, d := range endToEnd {
		known[d.Name] = true
	}
	for _, d := range perLayer {
		known[d.Name] = true
	}
	var out []string
	for n := range vals {
		if !known[n] {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// percentile interpolates the q-quantile (0..1) of sorted data; 0 for
// an empty sample.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// durationsMs converts nanosecond samples to sorted milliseconds.
func durationsMs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, d := range ns {
		out[i] = float64(d) / 1e6
	}
	sort.Float64s(out)
	return out
}

func fmtValue(v float64) string {
	switch a := math.Abs(v); {
	case a == 0:
		return "0"
	case a >= 1000:
		return fmt.Sprintf("%.1f", v)
	case a >= 1:
		return fmt.Sprintf("%.4f", v)
	default:
		return fmt.Sprintf("%.6g", v)
	}
}
