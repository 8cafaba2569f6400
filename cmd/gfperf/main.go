// Command gfperf is the repository's benchmark: six named workloads,
// each run end to end (untraced, for the metrics a user sees) and
// layer by layer (a traced run with harness-side spans and layer
// probes, and a run with the engine's own observer on), with output
// checks that make any wrong result a failed run.
//
// Usage, from this directory (the benchmark is its own module):
//
//	go run .                       # every workload, seed 42, 3 reps; prints all metrics
//	go run . -smoke                # tiny shapes of all six, seconds
//	go run . -workload gpu-scale -seed 7 -seconds 12 -trace 0  # one driver run
//	go run . -manifest             # print BENCHMARK.json
//
// The driver form prints one JSON object as its last line: the
// end-to-end metrics with -trace 0, the per-layer metrics with
// -trace 1. See bench/README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs/span"
)

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	reps     int
	smoke    bool
	outDir   string
	manifest bool
	child    bool
	mode     string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and print the driver's result line (default: all six, full report)")
	flag.Int64Var(&o.seed, "seed", 42, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "with -workload: measure untraced reps until this much run time is spent")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
	flag.IntVar(&o.reps, "reps", 3, "untraced reps per workload in the full report")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny shapes of all six workloads: checks only, seconds in total")
	flag.StringVar(&o.outDir, "out", "", "directory for traces and results (default bench/out under the repo root)")
	flag.BoolVar(&o.manifest, "manifest", false, "print BENCHMARK.json and exit")
	flag.BoolVar(&o.child, "child", false, "internal: run one rep in this process and print it as JSON")
	flag.StringVar(&o.mode, "mode", modeUntraced, "internal: with -child, the kind of run")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "gfperf:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.manifest {
		b, err := manifestJSON()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(b)
		return err
	}
	if o.outDir == "" {
		o.outDir = filepath.Join(repoRoot(), "bench", "out")
	}
	if o.child {
		sh, err := shapeByName(o.workload, o.smoke)
		if err != nil {
			return err
		}
		r, err := runRep(sh, o.seed, o.mode, o.outDir)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(r)
	}
	h := harness{seed: o.seed, smoke: o.smoke, outDir: o.outDir}
	if o.workload != "" {
		return h.driverRun(o.workload, o.seconds, o.trace)
	}
	return h.fullReport(o.reps)
}

// repoRoot walks up from the working directory to the directory
// holding BENCHMARK.json; the working directory itself when there is
// none.
func repoRoot() string {
	wd, err := os.Getwd()
	if err != nil {
		return "."
	}
	for dir := wd; ; dir = filepath.Dir(dir) {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir
		}
		if dir == filepath.Dir(dir) {
			return wd
		}
	}
}

// runRep is one run of a workload in this process.
func runRep(sh shape, seed int64, mode, outDir string) (*rep, error) {
	switch sh.kind {
	case kindSweep:
		return runSweep(sh, seed, mode, outDir)
	case kindDist:
		return runDist(sh, seed, mode, outDir)
	default:
		return runLocal(sh, seed, mode, outDir)
	}
}

// traceFileSpans caps the trace file: Perfetto opens a few tens of
// thousands of spans at once comfortably, and the per-layer metrics
// are computed from all spans before the file is cut.
const traceFileSpans = 30000

// writeTrace writes the run's first traceFileSpans spans as Chrome
// trace_event JSON for Perfetto.
func writeTrace(dir, workloadName string, spans []span.Span) error {
	if len(spans) > traceFileSpans {
		fmt.Fprintf(os.Stderr, "gfperf: %s trace file holds the first %d of %d spans\n", workloadName, traceFileSpans, len(spans))
		spans = spans[:traceFileSpans]
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workloadName+".json"))
	if err != nil {
		return err
	}
	if err := span.WriteChromeTrace(f, spans); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// harness is the parent process: it runs every rep in a fresh child,
// so no run inherits another's heap, and aggregates what they report.
type harness struct {
	seed   int64
	smoke  bool
	outDir string
}

// spawn runs one rep in a child process and waits for it to end.
func (h harness) spawn(workloadName, mode string) (*rep, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", workloadName, "-mode", mode,
		"-seed", strconv.FormatInt(h.seed, 10), "-out", h.outDir}
	if h.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s %s rep: %w", workloadName, mode, err)
	}
	var r rep
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &r); err != nil {
		return nil, fmt.Errorf("%s %s rep: bad output: %w", workloadName, mode, err)
	}
	return &r, nil
}

// spawnAll runs a workload all three ways: n untraced reps, then the
// traced and the obs-on run.
func (h harness) spawnAll(workloadName string, n int) (untraced []*rep, traced, obsRun *rep, err error) {
	for i := 0; i < n; i++ {
		r, err := h.spawn(workloadName, modeUntraced)
		if err != nil {
			return nil, nil, nil, err
		}
		untraced = append(untraced, r)
	}
	if traced, err = h.spawn(workloadName, modeTraced); err != nil {
		return nil, nil, nil, err
	}
	if obsRun, err = h.spawn(workloadName, modeObs); err != nil {
		return nil, nil, nil, err
	}
	return untraced, traced, obsRun, nil
}

// outcome is one workload's aggregated result.
type outcome struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Digest    string             `json:"digest"`
	Reps      int                `json:"reps"`
	Samples   int                `json:"round_samples"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Values    map[string]float64 `json:"values"`
}

func (o *outcome) problem(format string, args ...any) {
	o.Failed++
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

// aggregate merges a workload's runs: medians over the least disturbed
// third of the untraced reps, the per-layer values of the traced and
// obs-on runs (either may be nil), and the ratios between the kinds of
// run. It applies the cross-run output checks to every run.
func aggregate(untraced []*rep, traced, obsRun *rep) outcome {
	first := untraced[0]
	o := outcome{
		Workload: first.Workload, Seed: first.Seed, Digest: first.Digest,
		Reps: len(untraced), Values: make(map[string]float64),
	}
	all := append([]*rep(nil), untraced...)
	if traced != nil {
		all = append(all, traced)
	}
	if obsRun != nil {
		all = append(all, obsRun)
	}
	for _, r := range all {
		o.Attempted += r.Attempted
		o.Failed += r.Failed
		for _, p := range r.Problems {
			o.Problems = append(o.Problems, r.Mode+": "+p)
		}
		if r.Digest != o.Digest {
			o.problem("%s run's digest %.12s differs from the first untraced rep's %.12s", r.Mode, r.Digest, o.Digest)
		}
		for _, name := range exactMetrics {
			if v, ok := r.M[name]; ok && v != first.M[name] {
				o.problem("%s run's %s = %v differs from the first untraced rep's %v", r.Mode, name, v, first.M[name])
			}
		}
	}

	// Per-layer values: the traced run's, then the obs-on run's own
	// phase metrics, then medians of whatever the untraced reps measure
	// too (set-up steps, runtime, simulated outcomes).
	if traced != nil {
		for n, v := range traced.M {
			o.Values[n] = v
		}
	}
	if obsRun != nil {
		for n, v := range obsRun.M {
			if strings.HasPrefix(n, "obs.") {
				o.Values[n] = v
			}
		}
	}
	kept := leastDisturbed(untraced)
	for n := range first.M {
		xs := make([]float64, 0, len(kept))
		for _, r := range kept {
			xs = append(xs, r.M[n])
		}
		o.Values[n] = median(xs)
	}
	// A rep's set-up is over before its run starts, so how disturbed the
	// run was says nothing about it: every rep's set-up counts.
	setups := make([]float64, len(untraced))
	for i, r := range untraced {
		setups[i] = r.M["setup_s"]
	}
	o.Values["setup_s"] = median(setups)
	o.Values["failed_frac"] = float64(o.Failed) / float64(max(1, o.Attempted))
	var gaps []int64
	for _, r := range kept {
		gaps = append(gaps, r.GapsNs...)
	}
	roundsMs := durationsMs(gaps)
	o.Samples = len(roundsMs)
	o.Values["round_ms_p50"] = percentile(roundsMs, 0.50)
	o.Values["round_ms_p90"] = percentile(roundsMs, 0.90)

	// The ratios compare single runs with a typical untraced one, so
	// their base is the median over all reps, not only the kept ones.
	wall := make([]float64, len(untraced))
	for i, r := range untraced {
		wall[i] = r.WallS
	}
	base := median(wall)
	if traced != nil {
		o.Values["trace.overhead_ratio"] = traced.WallS / base
		if w1 := o.Values["sweep.points_per_s_w1"]; w1 > 0 {
			o.Values["sweep.parallel_efficiency"] = o.Values["sweep.points_per_s"] / w1 / sweepWorkers
		} else {
			o.Values["sweep.parallel_efficiency"] = 0
		}
	}
	if obsRun != nil {
		o.Values["obs.tax_time_ratio"] = obsRun.WallS / base
		o.Values["obs.tax_allocs_ratio"] = obsRun.M["allocs_per_round"] / o.Values["allocs_per_round"]
	}
	for _, n := range unnamed(o.Values) {
		o.problem("metric %q is emitted but named in neither table", n)
	}
	return o
}

// leastDisturbed returns the fastest third (rounded up) of the reps by
// run time. On a shared box interference only ever adds time, in
// bursts and in phases that slow every rep somewhat and some a lot: the
// reps that finished first are the ones it touched least, and the
// values are taken over them. Both sides of an A/B are trimmed alike.
func leastDisturbed(reps []*rep) []*rep {
	byWall := append([]*rep(nil), reps...)
	sort.SliceStable(byWall, func(i, j int) bool { return byWall[i].WallS < byWall[j].WallS })
	return byWall[:(len(byWall)+2)/3]
}

// require picks defs out of the outcome's values for reporting; a
// named metric that has no finite value is a failed check.
func (o *outcome) require(defs []metricDef) map[string]reported {
	sel := make(map[string]reported, len(defs))
	for _, d := range defs {
		v, ok := o.Values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			o.problem("metric %q is named but was not emitted", d.Name)
			continue
		}
		sel[d.Name] = reported{Value: v, Unit: d.Unit}
	}
	return sel
}

// driverRun is the form the benchmark driver calls: one workload, one
// result line.
func (h harness) driverRun(workloadName string, seconds float64, trace int) error {
	if _, err := shapeByName(workloadName, h.smoke); err != nil {
		return err
	}
	var o outcome
	var sel map[string]reported
	if trace == 0 {
		// Reps until the run-time budget is spent; at least four, of
		// which two are kept.
		var untraced []*rep
		spent := 0.0
		for len(untraced) < 4 || spent < seconds {
			r, err := h.spawn(workloadName, modeUntraced)
			if err != nil {
				return err
			}
			untraced = append(untraced, r)
			spent += r.WallS
		}
		o = aggregate(untraced, nil, nil)
		sel = o.require(endToEnd)
	} else {
		untraced, traced, obsRun, err := h.spawnAll(workloadName, 2)
		if err != nil {
			return err
		}
		o = aggregate(untraced, traced, obsRun)
		sel = o.require(perLayer)
	}
	for _, p := range o.Problems {
		fmt.Fprintf(os.Stderr, "gfperf: %s: %s\n", workloadName, p)
	}
	fmt.Fprintf(os.Stderr, "gfperf: %s seed %d: %d reps, %d round samples kept, digest %s\n",
		workloadName, h.seed, o.Reps, o.Samples, o.Digest)
	return json.NewEncoder(os.Stdout).Encode(struct {
		Correct   bool                `json:"correct"`
		Attempted int                 `json:"attempted"`
		Failed    int                 `json:"failed"`
		Metrics   map[string]reported `json:"metrics"`
	}{len(o.Problems) == 0 && o.Failed == 0, max(1, o.Attempted), o.Failed, sel})
}

// fullReport runs every workload all three ways, prints every metric
// by name with its unit, writes the results beside the traces, and
// fails when any check does.
func (h harness) fullReport(reps int) error {
	if reps < 1 {
		return fmt.Errorf("-reps must be at least 1")
	}
	table := shapes
	if h.smoke {
		table = smokeShapes
		reps = min(reps, 2)
	}
	start := time.Now()
	fmt.Printf("gfperf: seed %d, %d untraced reps + traced + obs-on per workload, GOMAXPROCS %d, %s\n",
		h.seed, reps, runtime.GOMAXPROCS(0), runtime.Version())
	var outcomes []outcome
	failed := 0
	for _, sh := range table {
		untraced, traced, obsRun, err := h.spawnAll(sh.name, reps)
		if err != nil {
			return err
		}
		o := aggregate(untraced, traced, obsRun)
		e2e := o.require(endToEnd)
		layers := o.require(perLayer)
		printOutcome(o, e2e, layers)
		failed += len(o.Problems)
		outcomes = append(outcomes, o)
	}
	if err := h.writeResults(outcomes); err != nil {
		return err
	}
	fmt.Printf("\ngfperf: %d workloads in %.1f s\n", len(outcomes), time.Since(start).Seconds())
	if failed > 0 {
		return fmt.Errorf("%d output checks failed", failed)
	}
	fmt.Println("gfperf: all output checks passed")
	return nil
}

func printOutcome(o outcome, e2e, layers map[string]reported) {
	fmt.Printf("\n== %s  (digest %s, %d reps, %d round samples kept, %d/%d failed)\n",
		o.Workload, o.Digest, o.Reps, o.Samples, o.Failed, o.Attempted)
	for _, d := range endToEnd {
		if v, ok := e2e[d.Name]; ok {
			fmt.Printf("  %-40s %14s %-6s (%s is better, bound %.2f)\n", d.Name, fmtValue(v.Value), v.Unit, d.Better, d.Bound)
		}
	}
	for _, d := range perLayer {
		if v, ok := layers[d.Name]; ok {
			fmt.Printf("  %-40s %14s %s\n", d.Name, fmtValue(v.Value), v.Unit)
		}
	}
	for _, p := range o.Problems {
		fmt.Printf("  FAILED: %s\n", p)
	}
}

func (h harness) writeResults(outcomes []outcome) error {
	if err := os.MkdirAll(h.outDir, 0o755); err != nil {
		return err
	}
	sort.SliceStable(outcomes, func(i, j int) bool { return outcomes[i].Workload < outcomes[j].Workload })
	b, err := json.MarshalIndent(outcomes, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("results-seed%d.json", h.seed)
	if h.smoke {
		name = "results-smoke.json"
	}
	return os.WriteFile(filepath.Join(h.outDir, name), append(b, '\n'), 0o644)
}
