package obs

import (
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/trace"
)

// scrape renders o's exposition.
func scrape(t *testing.T, o *Observer) string {
	t.Helper()
	var b strings.Builder
	if err := o.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// withoutBuildInfo drops the gf_build_info sample, whose labels name
// the toolchain and the commit.
func withoutBuildInfo(s string) string {
	var keep []string
	for _, ln := range strings.SplitAfter(s, "\n") {
		if !strings.HasPrefix(ln, "gf_build_info{") {
			keep = append(keep, ln)
		}
	}
	return strings.Join(keep, "")
}

// TestExpositionGolden pins /metrics byte for byte:
// testdata/exposition.golden is what the metrics registry this package
// used to hold rendered for the scripted session.
func TestExpositionGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/exposition.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := scrape(t, scriptedObserver())
	if withoutBuildInfo(got) != withoutBuildInfo(string(want)) {
		t.Errorf("exposition differs from testdata/exposition.golden:\n%s", got)
	}
	if !strings.Contains(got, "\ngf_build_info{goversion=") {
		t.Error("gf_build_info missing")
	}
}

// TestLabelEscaping: user IDs come from scenario JSON, so every
// per-user family escapes a quote, a backslash and a newline in one.
func TestLabelEscaping(t *testing.T) {
	out := scrape(t, scriptedObserver())
	for _, want := range []string{
		`gf_user_comp_deficit_seconds{user="ev\"il\\us\ner"} 90.5`,
		`gf_user_usage_fraction{user="ev\"il\\us\ner"} 0.7`,
		`gf_finish_time_fairness_rho{user="ev\"il\\us\ner"} 1.25`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing %s in:\n%s", want, out)
		}
	}
	if v := scriptedObserver().Value("gf_user_comp_deficit_seconds", hostileUser); v != 90.5 {
		t.Errorf("Value of the hostile user's deficit = %v, want 90.5", v)
	}
}

func TestCounterGaugeExposition(t *testing.T) {
	o := New()
	o.BeginRound(1, 360)
	o.EndRound(Round{Active: 3, Events: []trace.Record{
		{Kind: trace.KindFailure}, {Kind: trace.KindJobCrash}, {Kind: trace.KindFailure},
	}})
	out := scrape(t, o)
	for _, want := range []string{
		"# HELP gf_rounds_total Scheduling rounds completed.",
		"# TYPE gf_rounds_total counter",
		"gf_rounds_total 1",
		`gf_faults_injected_total{kind="server-down"} 2`,
		`gf_faults_injected_total{kind="job-crash"} 1`,
		"# TYPE gf_jobs_active gauge",
		"gf_jobs_active 3",
		"gf_sim_time_seconds 360",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	o := New()
	o.Emit(trace.Record{Kind: trace.KindComp, User: "u", Y: 5},
		trace.Record{Kind: trace.KindComp, User: "u", Y: -3})
	if v := o.Value("gf_comp_repaid_gpu_seconds_total"); v != 5 {
		t.Errorf("counter = %v, want 5 (negative add ignored)", v)
	}
}

func TestHistogramExposition(t *testing.T) {
	o := New()
	var ns int64
	o.now = func() time.Time { return time.Unix(0, ns) }
	for _, d := range []time.Duration{50 * time.Millisecond, 500 * time.Millisecond, 2 * time.Second} {
		o.PhaseStart(PhaseDecide)
		ns += int64(d)
		o.PhaseEnd(PhaseDecide)
		o.EndRound(Round{})
	}
	out := scrape(t, o)
	for _, want := range []string{
		"# TYPE gf_round_phase_seconds histogram",
		`gf_round_phase_seconds_bucket{phase="decide",le="0.05"} 1`,
		`gf_round_phase_seconds_bucket{phase="decide",le="0.1"} 1`,
		`gf_round_phase_seconds_bucket{phase="decide",le="1"} 2`,
		`gf_round_phase_seconds_bucket{phase="decide",le="2.5"} 3`,
		`gf_round_phase_seconds_bucket{phase="decide",le="+Inf"} 3`,
		`gf_round_phase_seconds_count{phase="decide"} 3`,
		`gf_round_phase_seconds_sum{phase="decide"} 2.55`,
		`gf_round_phase_seconds_count{phase="audit"} 0`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestExpositionDeterministicOrder(t *testing.T) {
	build := func() string {
		o := New()
		o.Emit(trace.Record{Kind: trace.KindProtocol, Name: "report_sent"},
			trace.Record{Kind: trace.KindProtocol, Name: "plan_sent"})
		o.SetSLO(map[string]float64{"zed": 1, "amy": 2}, nil, -1)
		return scrape(t, o)
	}
	a, b := build(), build()
	if a != b {
		t.Fatalf("non-deterministic exposition:\n%s\nvs\n%s", a, b)
	}
	if strings.Index(a, "gf_agents_degraded") > strings.Index(a, "gf_user_usage_fraction") {
		t.Errorf("families not name-sorted:\n%s", a)
	}
	if strings.Index(a, `event="plan_sent"`) > strings.Index(a, `event="report_sent"`) ||
		strings.Index(a, `user="amy"`) > strings.Index(a, `user="zed"`) {
		t.Errorf("series not label-sorted:\n%s", a)
	}
}

// TestFamilyTableIsValid: the families table is the exposition's
// order and header text, so its names must be valid metric names,
// strictly ascending, and its help must need no escaping.
func TestFamilyTableIsValid(t *testing.T) {
	valid := func(s string) bool {
		for i, c := range s {
			if !(c == '_' || c >= 'a' && c <= 'z' || i > 0 && c >= '0' && c <= '9') {
				return false
			}
		}
		return s != ""
	}
	for i, f := range families {
		if !valid(f.name) || (f.label != "" && !valid(f.label)) {
			t.Errorf("%q: invalid metric or label name %q", f.name, f.label)
		}
		if i > 0 && families[i-1].name >= f.name {
			t.Errorf("%q follows %q: the table must be in strict name order", f.name, families[i-1].name)
		}
		if f.help == "" || strings.ContainsAny(f.help, "\\\n") {
			t.Errorf("%q: help %q is empty or needs escaping", f.name, f.help)
		}
		if f.typ != "counter" && f.typ != "gauge" && f.typ != "histogram" {
			t.Errorf("%q: unknown type %q", f.name, f.typ)
		}
	}
}

// hostileUser is a user ID as scenario JSON may carry it: a quote, a
// backslash and a newline, each of which the exposition must escape.
const hostileUser = "ev\"il\\us\ner"

// scriptedObserver drives one Observer through a fixed session under a
// fake clock: two rounds carrying every record kind (every protocol
// and network-fault name among them, and one network name no injector
// uses), an Emit between the rounds, shares that include the hostile
// user, and the end-of-run SLO gauges.
func scriptedObserver() *Observer {
	o := New()
	var tick, ns int64
	o.now = func() time.Time { // steps of growing length, to reach many buckets
		tick++
		ns += tick * tick * tick * 700
		return time.Unix(0, ns)
	}
	proto := []string{
		"corrupt_detected", "dup_dropped", "fence_reject", "late_report_applied",
		"late_report_dropped", "lease_expired", "partition_heal", "plan_received",
		"plan_send_failed", "plan_sent", "probe_send_failed", "probe_sent",
		"register_duplicate", "register_received", "register_sent", "rejoin_accepted",
		"rejoin_rejected", "report_received", "report_send_failed", "report_sent",
		"report_timeout", "restored", "send_retry", "snapshot_saved", "stale_plan_dropped",
	}
	net := []string{"drop", "dup", "reorder", "delay", "corrupt", "oneway", "partition", "no-such-fault"}

	o.BeginRound(1, 360)
	for _, p := range AllPhases {
		o.PhaseStart(p)
		o.PhaseEnd(p)
	}
	o.PhaseStart(PhaseAudit) // a second segment of one phase
	o.PhaseEnd(PhaseAudit)
	moved := decision(7, hostileUser, gpu.V100, 4, 5)
	moved.Name, moved.X, moved.Y, moved.M, moved.From = "credit", 2, 1, 1, gpu.K80
	recs := []trace.Record{
		{Kind: trace.KindArrival, Job: 7, User: hostileUser, N: 2},
		{Kind: trace.KindArrival, Job: 8, User: "alice", N: 1},
		{Kind: trace.KindStart, Job: 7, Gen: gpu.V100},
		moved,
		decision(8, "alice", gpu.K80, 0),
		{Kind: trace.KindMigration, Job: 7, Gen: gpu.V100, X: 30},
		{Kind: trace.KindTrade, User: "alice", Name: hostileUser, Gen: gpu.V100, From: gpu.K80, X: 1, Y: 2.5, Z: 1.25},
		{Kind: trace.KindUnplaced, N: 3},
		{Kind: trace.KindFailure, N: 1},
		{Kind: trace.KindRecovery, N: 1},
		{Kind: trace.KindJobCrash, Job: 8, X: 64, N: 1},
		{Kind: trace.KindMigFail, Job: 7, N: 1, M: 2, X: 10},
		{Kind: trace.KindQuarantine, N: 2},
		{Kind: trace.KindQuarantine, N: 3},
		{Kind: trace.KindUnquarantine, N: 2},
		{Kind: trace.KindDegrade, N: 4, X: 1.5},
		{Kind: trace.KindDegradeEnd, N: 4},
		{Kind: trace.KindComp, User: hostileUser, X: 120.5, Y: 30},
		{Kind: trace.KindComp, User: "alice", X: 0, Y: -5}, // a negative repayment is not counted
		{Kind: trace.KindLeaseExpire, Name: "k80-0"},
		{Kind: trace.KindPartitionHeal, Name: "k80-0"},
		{Kind: trace.KindFenceReject, Name: "k80-1", N: 1, M: 1},
		{Kind: trace.KindEpoch, N: 2},
		{Kind: trace.KindDegraded, N: 1},
		{Kind: trace.KindFinish, Job: 8, X: 3600},
	}
	for _, p := range proto {
		recs = append(recs, trace.Record{Kind: trace.KindProtocol, Name: p})
	}
	for _, n := range net {
		recs = append(recs, trace.Record{Kind: trace.KindNet, Name: n})
	}
	o.EndRound(Round{Events: recs, Active: 1, Pending: 4, Shares: []ShareSample{
		{User: "alice", Usage: 0.25, Fair: 0.5},
		{User: hostileUser, Usage: 0.75, Fair: 0.5},
	}})

	o.Emit(trace.Record{Kind: trace.KindProtocol, Name: "plan_sent"},
		trace.Record{Kind: trace.KindNet, Name: "drop"})

	o.BeginRound(2, 720)
	o.PhaseStart(PhaseDecide)
	o.PhaseStart(PhaseTrade)
	o.PhaseEnd(PhaseTrade)
	o.PhaseEnd(PhaseDecide)
	o.PhaseStart(PhaseExecute) // left open: EndRound closes it
	o.EndRound(Round{Events: []trace.Record{
		{Kind: trace.KindComp, User: hostileUser, X: 90.5, Y: 30},
		{Kind: trace.KindProtocol, Name: "report_received"},
		{Kind: trace.KindEpoch, N: 3},
		{Kind: trace.KindDegraded, N: 0},
	}, Active: 0, Pending: 3, Shares: []ShareSample{
		{User: "alice", Usage: 0.3, Fair: 0.5},
		{User: "bob", Usage: 0, Fair: 0},
		{User: hostileUser, Usage: 0.7, Fair: 0.5},
	}})

	o.SetSLO(map[string]float64{"alice": 0.8, hostileUser: 1.25},
		map[string]float64{"0.5": 3600, "0.95": 7200.5, "0.99": 9000}, 10800)
	return o
}
