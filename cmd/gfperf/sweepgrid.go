package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs/span"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// sweepWorkers is the worker-pool size sweep-grid measures at: the
// cores of the reference box, and the N of parallel_efficiency.
const sweepWorkers = 2

// fairGroup is the sweep group whose fairness outputs the end-to-end
// metrics report (Gandiva_fair with trading).
const fairGroup = "gandiva-fair"

// gridJSON renders the workload's grid as the JSON gfsweep consumes;
// the grid's seeds are derived from the benchmark seed.
func gridJSON(sh shape, seed int64) ([]byte, error) {
	g := sweep.Grid{
		Scenario: scenario.Scenario{
			Trading:      true,
			HorizonHours: sh.horizonHours,
			QuantumSecs:  quantum,
		},
		Policies: sh.policies,
	}
	for _, u := range sh.userSpecs(workload.DefaultZoo()) {
		g.Scenario.Users = append(g.Scenario.Users, scenario.UserSpec{
			Name: string(u.User), Jobs: u.NumJobs,
			ArrivalsPerHour: u.ArrivalRatePerHour, MeanK80Hours: u.MeanK80Hours,
			Models: u.Models,
		})
	}
	for i := 0; i < sh.gridSeeds; i++ {
		g.Seeds = append(g.Seeds, seed*1000+int64(i))
	}
	return json.Marshal(g)
}

// loadPoints is the researcher's path up to the run: parse the grid,
// expand it into points.
func loadPoints(grid []byte) ([]sweep.Point, error) {
	g, err := sweep.LoadGrid(bytes.NewReader(grid))
	if err != nil {
		return nil, err
	}
	return g.Points(core.AuditStrict)
}

// runSweep is one rep of sweep-grid.
func runSweep(sh shape, seed int64, mode, outDir string) (*rep, error) {
	r := &rep{Workload: sh.name, Mode: mode, Seed: seed, M: make(map[string]float64)}
	grid, err := gridJSON(sh, seed)
	if err != nil {
		return nil, err
	}

	var (
		points    []sweep.Point
		generated []int
		ins       []instruments // one per point, filled in as each point starts
	)
	setup, err := medianSetup(func() error {
		t := time.Now()
		var err error
		if points, err = loadPoints(grid); err != nil {
			return err
		}
		r.M["scenario.load_build_ms"] = sinceMs(t)
		generated = make([]int, len(points))
		ins = make([]instruments, len(points))
		for i := range points {
			generated[i] = len(points[i].Config.Specs)
			inner := points[i].Policy
			rounds := int(float64(points[i].Horizon)/quantum) + 1
			i := i
			points[i].Policy = func() (core.Policy, error) {
				p, err := inner()
				if err != nil {
					return nil, err
				}
				ins[i] = instrument(p, mode, fmt.Sprintf("point-%03d", i), rounds, spanCap(rounds, generated[i]))
				return ins[i].policy, nil
			}
		}
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}

	var results []sweep.RunResult
	m := measure(func() {
		results = sweep.Run(context.Background(), points, sweep.Options{
			Workers: sweepWorkers, Profile: mode == modeObs,
		})
	})
	t := time.Now()
	summary := sweep.Summarize(results)
	r.M["sweep.summarize_ms"] = sinceMs(t)

	r.Attempted = len(points)
	var simHours float64
	var rounds int
	var gaps []int64
	phases := make(map[string]float64)
	h := sha256.New()
	t = time.Now()
	for i, rr := range results {
		if rr.Err != nil {
			r.fail(1, "point %s: %v", rr.Label, firstLine(rr.Err.Error()))
			continue
		}
		res := rr.Result
		r.checkResult("point "+rr.Label+": ", res, generated[i])
		_, _ = fmt.Fprintf(h, "%s %s\n", rr.Label, core.CanonicalDigest(res)) // a hash never fails to write
		simHours += float64(res.End) / 3600
		rounds += res.Rounds
		gaps = append(gaps, ins[i].gaps()...)
		for p, s := range res.PhaseTotalsSeconds {
			phases[p] += s
		}
	}
	r.Digest = fmt.Sprintf("%x", h.Sum(nil))
	r.M["core.digest_ms"] = sinceMs(t)

	r.endToEndValues(setup, m, simHours, rounds, gaps)
	r.M["sweep.points"] = float64(len(points))
	r.M["sweep.points_per_s"] = float64(len(points)) / m.wall.Seconds()
	r.zero("gpu.new_ms", "workload.generate_ms", "core.new_ms",
		"faults.generate_ms", "faults.sweep_advance_us_per_round",
		"faults.crashes", "faults.migration_failures", "faults.quarantines", "faults.comp_repaid_gpu_h")
	r.zero(wireNames...)
	for _, g := range summary.Groups {
		if g.Group != fairGroup {
			continue
		}
		r.M["share_err_max"] = g.MaxShareError.Mean
		r.M["gpu_util"] = g.Utilization.Mean
		r.M["metrics.jct_p50_h"] = g.JCT.P50 / 3600
		r.M["metrics.jct_p99_h"] = g.JCT.P99 / 3600
		r.M["metrics.rho_max"] = g.RhoMax.Mean
		r.M["metrics.makespan_h"] = g.Makespan.Mean / 3600
	}

	switch mode {
	case modeTraced:
		var spans []span.Span
		var counts []roundCounts
		var probe *probeInput
		for i := range ins {
			tp := ins[i].traced
			if tp == nil {
				continue
			}
			tp.finish()
			if d := tp.tr.Dropped(); d > 0 {
				r.fail(1, "span ring dropped %d spans", d)
			}
			spans = append(spans, tp.tr.Spans()...)
			counts = append(counts, tp.counts...)
			if probe == nil && results[i].Group == fairGroup {
				probe = tp.probe
			}
		}
		r.spanValues(analyzeSpans(spans), counts)
		if err := r.probePolicyLayers(probe); err != nil {
			return nil, err
		}
		// The one-worker pass behind parallel_efficiency: same grid,
		// fresh points (policies are stateful), no decorators.
		serial, err := loadPoints(grid)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for _, rr := range sweep.Run(context.Background(), serial, sweep.Options{Workers: 1}) {
			if rr.Err != nil {
				r.fail(1, "one-worker point %s: %v", rr.Label, firstLine(rr.Err.Error()))
			}
		}
		r.M["sweep.points_per_s_w1"] = float64(len(serial)) / time.Since(start).Seconds()
		if err := writeTrace(outDir, sh.name, spans); err != nil {
			return nil, err
		}
	case modeObs:
		r.phaseValues(phases, rounds, time.Duration(float64(m.wall)*sweepWorkers))
	}
	return r, nil
}

func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}
