package experiments

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/migrate"
	"repro/internal/simclock"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// meanSlowdown averages JCT over each finished job's physics-optimal
// runtime (standalone on the fastest generation it fits) — the
// contention-plus-placement penalty jobs experienced.
func meanSlowdown(res *core.Result) float64 {
	var sum float64
	n := 0
	for _, j := range res.Finished {
		best := simclock.Duration(simclock.Forever)
		for _, g := range gpu.Generations() {
			if j.Perf.FitsOn(g) {
				if s := j.StandaloneTime(g); s < best {
					best = s
				}
			}
		}
		if best > 0 && best < simclock.Duration(simclock.Forever) {
			sum += metrics.Slowdown(j.JCT(), best)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func tiresias() core.Policy  { return baselines.NewTiresias() }
func gandivaRR() core.Policy { return baselines.NewGandivaRR() }
func fifo() core.Policy      { return baselines.NewFIFO() }

func init() {
	register(Experiment{ID: "E7", Title: "Work conservation across user churn",
		Artifact: "Fig: share redistribution", Run: e07WorkConservation})
	register(Experiment{ID: "E8", Title: "Migration and suspend/resume overhead",
		Artifact: "Fig: migration overhead", Run: e08MigrationOverhead})
	register(Experiment{ID: "E9", Title: "Migration on/off under fragmentation",
		Artifact: "Fig: load balancing", Run: e09MigrationAblation})
	register(Experiment{ID: "E10", Title: "Automatic trading: two-user win-win",
		Artifact: "Fig: trading microbenchmark", Run: e10TradingWinWin})
	register(Experiment{ID: "E11", Title: "Automatic trading at cluster scale",
		Artifact: "Fig: trading efficiency gains", Run: e11TradingAtScale})
	register(Experiment{ID: "E12", Title: "End-to-end multi-user workload, all policies",
		Artifact: "Fig/Table: end-to-end evaluation", Run: e12EndToEnd})
}

// e07WorkConservation: three equal users; user c is only active in
// the middle third of the run. The timeline must show a,b at 50/50,
// then 33/33/33, then 50/50 again.
func e07WorkConservation(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	phase := 6 * simclock.Hour
	if opt.Quick {
		phase = 2 * simclock.Hour
	}
	var specs []job.Spec
	specs = append(specs, workload.BatchJobs("a", zoo.MustGet("lstm"), 8, 1, 1e6)...)
	specs = append(specs, workload.BatchJobs("b", zoo.MustGet("gru"), 8, 1, 1e6)...)
	// c arrives at phase and runs jobs sized to finish near 2×phase.
	// Sized for a third of a 16-GPU cluster: 8 jobs × (phase × 2/3)
	// standalone hours each ⇒ demand ≈ phase of work at 1/3 share...
	// sizing only needs to be "clearly within the middle window".
	cJobs := workload.BatchJobs("c", zoo.MustGet("vae"), 8, 1, float64(phase)*0.55/simclock.Hour)
	for i := range cJobs {
		cJobs[i].Arrival = simclock.Time(phase)
	}
	specs = append(specs, cJobs...)
	specs, err := workload.AssignIDs(specs)
	if err != nil {
		return nil, err
	}
	cluster := gpu.MustNew(gpu.Spec{Gen: gpu.K80, Servers: 4, GPUsPerSrv: 4})
	res, err := runSim(core.Config{
		Cluster: cluster, Specs: specs, Seed: opt.Seed,
		TimelineWindow: phase / 2,
	}, core.MustNewFairPolicy(core.FairConfig{}), simclock.Time(3*phase))
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "E7", Title: "User c joins at T/3 and departs at 2T/3 (16 GPUs, equal tickets)",
		Columns: []string{"window", "a", "b", "c"},
		Notes:   "c's share is carved out on arrival and redistributed to a,b on departure — work conservation both ways",
	}
	// The timeline's users are the workload's in ID order: a, b, c.
	for i, w := range res.Timeline.Windows() {
		fr := w.Fractions()
		t.AddRow(fmt.Sprintf("[%dh,%dh)", int(float64(w.Start)/3600), int(float64(w.End)/3600)),
			pct(fr[0]), pct(fr[1]), pct(fr[2]))
		if i >= 5 {
			break
		}
	}
	return t, nil
}

// e08MigrationOverhead reports the cost model per model (checkpoint
// size → seconds) and a measured end-to-end overhead fraction from a
// trading run where jobs migrate between generations.
func e08MigrationOverhead(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	cm := migrate.Default()
	t := &Table{
		ID: "E8", Title: "Migration cost by model; suspend/resume amortization",
		Columns: []string{"model", "ckpt MB", "migration s", "overhead per 30-min residency"},
		Notes:   "tens of seconds per migration; a few percent when jobs move at most every ~30 min",
	}
	for _, p := range zoo.Models() {
		cost := cm.MigrationCost(p)
		t.AddRow(p.Model, f1(p.CheckpointMB), f1(cost),
			pct(migrate.OverheadFraction(cost, 30*simclock.Minute)))
	}
	t.AddRow("suspend/resume", "-", f1(cm.ResumeCost()),
		pct(migrate.OverheadFraction(cm.ResumeCost(), 6*simclock.Minute)))

	// Measured: overhead share of occupied GPU time in a migratory
	// trading scenario.
	horizon := simclock.Time(12 * simclock.Hour)
	if opt.Quick {
		horizon = simclock.Time(4 * simclock.Hour)
	}
	var specs []job.Spec
	specs = append(specs, workload.BatchJobs("mem", zoo.MustGet("vae"), 12, 1, 1e6)...)
	specs = append(specs, workload.BatchJobs("dense", zoo.MustGet("resnext50"), 12, 1, 1e6)...)
	specs, _ = workload.AssignIDs(specs)
	cluster := gpu.MustNew(
		gpu.Spec{Gen: gpu.K80, Servers: 2, GPUsPerSrv: 4},
		gpu.Spec{Gen: gpu.V100, Servers: 2, GPUsPerSrv: 4},
	)
	res, err := runSim(core.Config{Cluster: cluster, Specs: specs, Seed: opt.Seed},
		core.MustNewFairPolicy(core.FairConfig{EnableTrading: true}), horizon)
	if err != nil {
		return nil, err
	}
	var overhead float64
	for _, j := range res.Finished {
		overhead += j.OverheadSeconds() * float64(j.Gang)
	}
	// Unfinished jobs (this workload never finishes): read overhead
	// via usage minus useful time.
	occupied, useful := res.TotalOccupied(), res.TotalUseful()
	t.AddRow("measured (trading run)", "-", fmt.Sprint(res.Migrations),
		pct((occupied-useful)/occupied))
	return t, nil
}

// e09MigrationAblation compares migration enabled/disabled under a
// churning mixed-gang workload: without migration, jobs pinned to
// servers cannot follow the allocation across generations and
// fragmentation strands capacity.
func e09MigrationAblation(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	horizon := simclock.Time(2 * simclock.Day)
	jobs := 160
	if opt.Quick {
		horizon = simclock.Time(simclock.Day)
		jobs = 80
	}
	build := func() []job.Spec {
		return workload.MustGenerate(zoo, workload.Config{
			Seed: opt.Seed,
			Users: []workload.UserSpec{
				{User: "a", NumJobs: jobs / 2, ArrivalRatePerHour: 6, MeanK80Hours: 5},
				{User: "b", NumJobs: jobs / 2, ArrivalRatePerHour: 6, MeanK80Hours: 5},
			},
			MaxK80Hours: 16,
		})
	}
	cluster := gpu.MustNew(
		gpu.Spec{Gen: gpu.K80, Servers: 5, GPUsPerSrv: 4},
		gpu.Spec{Gen: gpu.V100, Servers: 5, GPUsPerSrv: 4},
	)
	t := &Table{
		ID: "E9", Title: "Philly-like churn on 40 GPUs, migration on vs off",
		Columns: []string{"migration", "finished", "mean JCT h", "p95 JCT h", "utilization", "migrations"},
		Notes: "pinned jobs keep their GPUs busy but cannot follow entitlements onto faster generations " +
			"or defragment around gangs: mean JCT inflates ~25% with migration off",
	}
	var points []sweep.Point
	labels := []string{"on", "off"}
	for i, disabled := range []bool{false, true} {
		points = append(points, point("e09/migration="+labels[i],
			core.Config{Cluster: cluster, Specs: build(), Seed: opt.Seed, DisableMigration: disabled},
			func() core.Policy { return core.MustNewFairPolicy(core.FairConfig{EnableTrading: true}) },
			horizon))
	}
	results, err := runPoints(points)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		st := metrics.Summarize(res.JCTs())
		t.AddRow(labels[i], fmt.Sprint(len(res.Finished)), f1(st.Mean/3600), f1(st.P95/3600),
			pct(res.Utilization.Fraction()), fmt.Sprint(res.Migrations))
	}
	return t, nil
}

// e10TradingWinWin: the two-user microbenchmark — a memory-bound user
// and a compute-dense user split a K80+V100 cluster; trading must
// raise both users' throughput.
func e10TradingWinWin(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	horizon := simclock.Time(24 * simclock.Hour)
	if opt.Quick {
		horizon = simclock.Time(6 * simclock.Hour)
	}
	build := func() []job.Spec {
		var specs []job.Spec
		specs = append(specs, workload.BatchJobs("mem", zoo.MustGet("vae"), 12, 1, 1e6)...)
		specs = append(specs, workload.BatchJobs("dense", zoo.MustGet("resnext50"), 12, 1, 1e6)...)
		specs, _ = workload.AssignIDs(specs)
		return specs
	}
	cluster := gpu.MustNew(
		gpu.Spec{Gen: gpu.K80, Servers: 2, GPUsPerSrv: 4},
		gpu.Spec{Gen: gpu.V100, Servers: 2, GPUsPerSrv: 4},
	)
	results, err := runPoints([]sweep.Point{
		point("e10/blind", core.Config{Cluster: cluster, Specs: build(), Seed: opt.Seed},
			func() core.Policy { return core.MustNewFairPolicy(core.FairConfig{}) }, horizon),
		point("e10/traded", core.Config{Cluster: cluster, Specs: build(), Seed: opt.Seed},
			func() core.Policy { return core.MustNewFairPolicy(core.FairConfig{EnableTrading: true}) }, horizon),
	})
	if err != nil {
		return nil, err
	}
	blind, traded := results[0], results[1]
	t := &Table{
		ID: "E10", Title: "vae user vs resnext50 user on 8 K80 + 8 V100",
		Columns: []string{"user", "minibatches (blind)", "minibatches (traded)", "gain"},
		Notes:   "both gain: the dense user buys V100 time with K80 time at a price between the two speedups",
	}
	for _, u := range []job.UserID{"mem", "dense"} {
		b, tr := blind.ThroughputByUser[u], traded.ThroughputByUser[u]
		t.AddRow(string(u), f1(b), f1(tr), f2(tr/b))
	}
	t.AddRow("trades executed", "-", fmt.Sprint(traded.TradeCount), "-")
	return t, nil
}

// e11TradingAtScale: the full 200-GPU cluster with users whose model
// mixes create a wide speedup spread; trading must not hurt anyone
// and should lift aggregate progress.
func e11TradingAtScale(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	// jobsPer stays high even in quick mode: total demand must exceed
	// 200 GPUs or there is nothing to trade (uncontended water-fill
	// already hands everyone their full demand).
	horizon := simclock.Time(24 * simclock.Hour)
	jobsPer := 50
	if opt.Quick {
		horizon = simclock.Time(6 * simclock.Hour)
	}
	mixes := []struct {
		user   job.UserID
		models []string
	}{
		{"membound", []string{"vae", "superres", "squeezenet"}},
		{"gan", []string{"dcgan", "pix2pix", "cyclegan"}},
		{"rnn", []string{"lstm", "gru"}},
		{"cnn", []string{"resnet50", "densenet121"}},
		{"dense", []string{"resnext50", "transformer"}},
	}
	build := func() []job.Spec {
		var us []workload.UserSpec
		for _, m := range mixes {
			us = append(us, workload.UserSpec{
				User: m.user, NumJobs: jobsPer, Models: m.models, MeanK80Hours: 1e5,
				GangDist: []workload.GangWeight{{Gang: 1, Weight: 0.7}, {Gang: 2, Weight: 0.2}, {Gang: 4, Weight: 0.1}},
			})
		}
		return workload.MustGenerate(zoo, workload.Config{
			Seed: opt.Seed, Users: us, MinK80Hours: 1e5, MaxK80Hours: 1e5,
		})
	}
	cluster := gpu.Default200()
	results, err := runPoints([]sweep.Point{
		point("e11/blind", core.Config{Cluster: cluster, Specs: build(), Seed: opt.Seed},
			func() core.Policy { return core.MustNewFairPolicy(core.FairConfig{}) }, horizon),
		point("e11/traded", core.Config{Cluster: cluster, Specs: build(), Seed: opt.Seed},
			func() core.Policy { return core.MustNewFairPolicy(core.FairConfig{EnableTrading: true}) }, horizon),
	})
	if err != nil {
		return nil, err
	}
	blind, traded := results[0], results[1]
	t := &Table{
		ID: "E11", Title: "5 users with skewed model mixes on the 200-GPU cluster",
		Columns: []string{"user", "progress gain from trading", "share (traded)"},
		Notes:   "no user loses; users at the speedup extremes gain the most",
	}
	sh := metrics.ShareFractions(traded.TotalUsageByUser())
	worst := 1e9
	for _, m := range mixes {
		gain := traded.ThroughputByUser[m.user] / blind.ThroughputByUser[m.user]
		if gain < worst {
			worst = gain
		}
		t.AddRow(string(m.user), f2(gain), pct(sh[m.user]))
	}
	t.AddRow("worst-case gain", f2(worst), "-")
	t.AddRow("trades executed", fmt.Sprint(traded.TradeCount), "-")
	return t, nil
}

// e12EndToEnd: the headline evaluation — a Philly-shaped multi-user
// workload on the 200-GPU cluster under every policy.
func e12EndToEnd(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	horizon := simclock.Time(3 * simclock.Day)
	jobsPer := 70
	if opt.Quick {
		horizon = simclock.Time(simclock.Day)
		jobsPer = 35
	}
	users := []job.UserID{"u1", "u2", "u3", "u4", "u5", "u6", "u7", "u8", "u9", "u10"}
	modelPools := [][]string{
		{"vae", "superres"}, {"squeezenet", "dcgan"}, {"pix2pix", "cyclegan"},
		{"lstm", "gru"}, {"resnet50"}, {"densenet121", "resnet50"},
		{"resnext50"}, {"transformer"}, {"gru", "vae"}, {"resnext50", "transformer"},
	}
	build := func() []job.Spec {
		var us []workload.UserSpec
		for i, u := range users {
			// Skewed tenancy: later users flood the cluster with more,
			// faster-arriving jobs — the conditions under which
			// job-centric scheduling diverges from user fairness.
			us = append(us, workload.UserSpec{
				User: u, NumJobs: jobsPer + 15*i, ArrivalRatePerHour: 2 + float64(i),
				Models: modelPools[i], MeanK80Hours: 8, SigmaLog: 1.3,
			})
		}
		return workload.MustGenerate(zoo, workload.Config{Seed: opt.Seed, Users: us, MaxK80Hours: 40})
	}
	cluster := gpu.Default200()

	t := &Table{
		ID: "E12", Title: "10 users, Philly-shaped arrivals, 200 heterogeneous GPUs",
		Columns: []string{"policy", "finished", "mean JCT h", "p95 JCT h", "util", "max share err", "Jain", "migrations", "trades", "mean slowdown"},
		Notes: "share error is raw GPU-time vs the water-filled reference; the no-trade row shows the " +
			"fairness guarantee (trading deviates from raw GPU-time voluntarily — both sides prefer the " +
			"exchange in throughput terms, which the lower mean JCT reflects)",
	}
	mks := []func() core.Policy{
		func() core.Policy { return core.MustNewFairPolicy(core.FairConfig{EnableTrading: true}) },
		func() core.Policy { return core.MustNewFairPolicy(core.FairConfig{}) },
		tiresias, gandivaRR,
		func() core.Policy { return baselines.NewStaticQuota(users) },
		fifo,
	}
	var points []sweep.Point
	for i, mk := range mks {
		points = append(points, point(fmt.Sprintf("e12/%d", i),
			core.Config{Cluster: cluster, Specs: build(), Seed: opt.Seed}, mk, horizon))
	}
	results, err := runPoints(points)
	if err != nil {
		return nil, err
	}
	for _, res := range results {
		st := metrics.Summarize(res.JCTs())
		sh := metrics.ShareFractions(res.TotalUsageByUser())
		var vals []float64
		for _, u := range users {
			vals = append(vals, sh[u])
		}
		t.AddRow(res.Policy, fmt.Sprint(len(res.Finished)), f1(st.Mean/3600), f1(st.P95/3600),
			pct(res.Utilization.Fraction()), pct(res.MaxShareError()),
			f2(metrics.Jain(vals)), fmt.Sprint(res.Migrations), fmt.Sprint(res.TradeCount),
			f1(meanSlowdown(res)))
	}
	return t, nil
}
