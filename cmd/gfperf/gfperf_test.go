package main

import (
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs/span"
)

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 5.5}, {0.95, 9.55}, {1, 10},
	} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := durationsMs([]int64{3e6, 1e6, 2e6}); got[0] != 1 || got[2] != 3 {
		t.Errorf("durationsMs = %v, want sorted milliseconds", got)
	}
}

// Two rounds of one process, the first with two children and an agent
// span beside it, the second (last) round closed by the end of the run.
func testSpans() []span.Span {
	return []span.Span{
		{ID: 1, Name: "round", Proc: "gfperf", Round: 1, DurNs: 10e6},
		{ID: 2, Parent: 1, Name: spanDecide, Proc: "gfperf", Round: 1, DurNs: 4e6},
		{ID: 3, Parent: 1, Name: spanExecuted, Proc: "gfperf", Round: 1, DurNs: 1e6},
		{ID: 4, Parent: 1, Name: spanAgent, Proc: "agent-000", Round: 1, DurNs: 8e6},
		{ID: 5, Name: "round", Proc: "gfperf", Round: 2, DurNs: 50e6},
		{ID: 6, Parent: 5, Name: spanDecide, Proc: "gfperf", Round: 2, DurNs: 6e6},
		{ID: 7, Parent: 5, Name: spanFinished, Proc: "gfperf", Round: 2, DurNs: -1}, // still open
	}
}

func TestSelfTimes(t *testing.T) {
	self := selfTimes(testSpans())
	if got := self[1]; got != 5e6 {
		t.Errorf("round 1 self time = %d ns, want 5e6: 10 ms minus the 4+1 ms of its own process's children, the agent's 8 ms not subtracted", got)
	}
	if got := self[5]; got != 44e6 {
		t.Errorf("round 2 self time = %d ns, want 44e6", got)
	}
	if _, ok := self[7]; ok {
		t.Error("an open span has a self time")
	}
}

func TestAnalyzeSpans(t *testing.T) {
	st := analyzeSpans(testSpans())
	if st.roundCount != 2 {
		t.Errorf("roundCount = %d, want 2", st.roundCount)
	}
	if len(st.roundsMs) != 1 || st.roundsMs[0] != 10 {
		t.Errorf("roundsMs = %v, want [10]: the last round is closed by the end of the run and left out", st.roundsMs)
	}
	if len(st.selfMs) != 1 || st.selfMs[0] != 5 {
		t.Errorf("selfMs = %v, want [5]", st.selfMs)
	}
	if got := sum(st.byName[spanDecide]); got != 10 {
		t.Errorf("decide total = %v ms, want 10 (both rounds count)", got)
	}
	if got := st.byName[spanAgent]; len(got) != 1 || got[0] != 8 {
		t.Errorf("agent spans = %v, want [8]", got)
	}
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricTables(t *testing.T) {
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(d metricDef) {
		t.Helper()
		if !metricNameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]{1,64}", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q is outside the contract's charset", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %s is named twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		check(d)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range perLayer {
		check(d)
		if d.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", d.Name)
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, contract allows 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1..128", n)
	}
	if d := endToEnd[0]; d.Name != "setup_s" || d.Unit != "s" || d.Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s in s, lower", d)
	}
	for _, n := range exactMetrics {
		if !seen[n] {
			t.Errorf("exact metric %q is in neither table", n)
		}
	}
	for _, group := range [][]string{wireNames, sweepNames, simOnlyNames} {
		for _, n := range group {
			if !seen[n] {
				t.Errorf("zeroed metric %q is in neither table", n)
			}
		}
	}
}

func TestWorkloadTables(t *testing.T) {
	if len(shapes) != 6 || len(smokeShapes) != len(shapes) {
		t.Fatalf("%d workloads, %d smoke shapes; want six of each", len(shapes), len(smokeShapes))
	}
	for i, sh := range shapes {
		if !metricNameRE.MatchString(sh.name) {
			t.Errorf("workload name %q is outside the contract's charset", sh.name)
		}
		if sh.why == "" || len(sh.why) > 200 || strings.Contains(sh.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, is %d", sh.name, len(sh.why))
		}
		if sm := smokeShapes[i]; sm.name != sh.name || sm.kind != sh.kind {
			t.Errorf("smoke shape %d is %s, want a tiny %s", i, sm.name, sh.name)
		}
	}
}

// BENCHMARK.json is generated from the tables (go run . -manifest); a
// hand edit of either side fails here.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("BENCHMARK.json differs from the harness's tables; regenerate it with: go run . -manifest > ../../BENCHMARK.json")
	}
}

// The smoke shapes run every workload all three ways in this process:
// the policy and transport decorators and the observer must leave the
// digest unchanged, every check must pass and every named metric must
// come out.
func TestSmokeDecoratorsKeepDigests(t *testing.T) {
	out := t.TempDir()
	for _, sh := range smokeShapes {
		t.Run(sh.name, func(t *testing.T) {
			runs := make(map[string]*rep)
			for _, mode := range []string{modeUntraced, modeUntraced + "#2", modeTraced, modeObs} {
				r, err := runRep(sh, 42, strings.TrimSuffix(mode, "#2"), out)
				if err != nil {
					t.Fatalf("%s: %v", mode, err)
				}
				if r.Digest == "" || r.Attempted == 0 {
					t.Fatalf("%s: empty result %+v", mode, r)
				}
				runs[mode] = r
			}
			o := aggregate([]*rep{runs[modeUntraced], runs[modeUntraced+"#2"]}, runs[modeTraced], runs[modeObs])
			o.require(endToEnd)
			o.require(perLayer)
			for _, p := range o.Problems {
				t.Error(p)
			}
			if o.Failed != 0 {
				t.Errorf("%d failed of %d attempted", o.Failed, o.Attempted)
			}
			if _, err := os.Stat(out + "/trace-" + sh.name + ".json"); err != nil {
				t.Errorf("traced run left no trace file: %v", err)
			}
		})
	}
}

func TestAggregateCatchesDivergence(t *testing.T) {
	mk := func(mode, digest string, util float64) *rep {
		return &rep{Workload: "w", Mode: mode, Digest: digest, Attempted: 10, WallS: 1,
			M: map[string]float64{"gpu_util": util, "allocs_per_round": 5}}
	}
	clean := aggregate([]*rep{mk(modeUntraced, "d", 0.5), mk(modeUntraced, "d", 0.5)}, nil, nil)
	if len(clean.Problems) != 0 {
		t.Errorf("identical reps reported problems: %v", clean.Problems)
	}
	bad := aggregate([]*rep{mk(modeUntraced, "d", 0.5), mk(modeUntraced, "e", 0.5)}, mk(modeTraced, "d", 0.25), nil)
	if len(bad.Problems) != 2 || bad.Failed != 2 {
		t.Errorf("want a digest problem and an exact-metric problem, got %d failed: %v", bad.Failed, bad.Problems)
	}
	stray := mk(modeUntraced, "d", 0.5)
	stray.M["not.a.metric"] = 1
	if o := aggregate([]*rep{stray}, nil, nil); len(o.Problems) != 1 {
		t.Errorf("an unnamed metric should be one problem, got %v", o.Problems)
	}
	if o := aggregate([]*rep{mk(modeUntraced, "d", 0.5)}, nil, nil); len(o.require(endToEnd)) == len(endToEnd) || len(o.Problems) == 0 {
		t.Error("missing end-to-end metrics were not reported")
	}
}

func TestAggregateKeepsLeastDisturbedThird(t *testing.T) {
	mk := func(wall, speed float64, gapsMs ...int64) *rep {
		r := &rep{Workload: "w", Mode: modeUntraced, Digest: "d", Attempted: 1, WallS: wall,
			M: map[string]float64{"sim_hours_per_s": speed}}
		for _, g := range gapsMs {
			r.GapsNs = append(r.GapsNs, g*1e6)
		}
		return r
	}
	// Six reps, half of them slowed: the two fastest are kept.
	o := aggregate([]*rep{
		mk(1.0, 100, 1, 1), mk(3.0, 30, 9, 9), mk(1.1, 90, 3, 3), mk(2.0, 50, 7, 7), mk(1.2, 80, 5, 5), mk(2.5, 40, 8, 8),
	}, nil, nil)
	if got := o.Values["sim_hours_per_s"]; got != 95 {
		t.Errorf("sim_hours_per_s = %v, want 95: the median of the two fastest reps", got)
	}
	if o.Samples != 4 {
		t.Errorf("%d round samples kept, want the 4 of the two fastest reps", o.Samples)
	}
	if got := o.Values["round_ms_p50"]; got != 2 {
		t.Errorf("round_ms_p50 = %v, want 2 over the pooled kept rounds", got)
	}
	if got := o.Values["round_ms_p90"]; got != 3 {
		t.Errorf("round_ms_p90 = %v, want 3", got)
	}
	if o.Reps != 6 {
		t.Errorf("Reps = %d, want all 6 counted", o.Reps)
	}
	if n := len(leastDisturbed([]*rep{mk(1, 1), mk(2, 1), mk(3, 1), mk(4, 1)})); n != 2 {
		t.Errorf("of 4 reps %d are kept, want 2", n)
	}
}
