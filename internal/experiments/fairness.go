package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/stride"
	"repro/internal/sweep"
	"repro/internal/workload"
)

var zoo = workload.DefaultZoo()

func init() {
	register(Experiment{ID: "E1", Title: "Per-model speedup across GPU generations",
		Artifact: "Table 1", Run: e01ModelSpeedups})
	register(Experiment{ID: "E2", Title: "Cluster composition",
		Artifact: "Table 2 (testbed description)", Run: e02ClusterComposition})
	register(Experiment{ID: "E3", Title: "Single-server time-slicing fairness",
		Artifact: "Fig: intra-server fairness", Run: e03SingleServerFairness})
	register(Experiment{ID: "E4", Title: "Gang-aware vs naive stride",
		Artifact: "Fig: gang-aware stride", Run: e04GangAwareStride})
	register(Experiment{ID: "E5", Title: "User-level fairness: many small vs few big jobs",
		Artifact: "Fig: user fairness", Run: e05UserFairness})
	register(Experiment{ID: "E6", Title: "User shares under Gandiva_fair vs baselines",
		Artifact: "Fig: fairness vs Tiresias", Run: e06VsBaselines})
}

// runSim is the shared driver.
func runSim(cfg core.Config, p core.Policy, until simclock.Time) (*core.Result, error) {
	sim, err := core.New(cfg, p)
	if err != nil {
		return nil, err
	}
	return sim.Run(until)
}

// e01ModelSpeedups measures, on the simulated substrate, each model's
// throughput on every generation by running it alone for a fixed
// horizon, reporting speedup over K80 — the shape of Table 1: wide
// spread of marginal utility across models.
func e01ModelSpeedups(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	horizon := simclock.Time(4 * simclock.Hour)
	if opt.Quick {
		horizon = simclock.Time(1 * simclock.Hour)
	}
	t := &Table{
		ID: "E1", Title: "Measured speedup over K80 (job run alone per generation)",
		Columns: []string{"model", "K80", "P40", "P100", "V100"},
		Notes:   "memory-bound models gain ≈1.1–1.5× on V100; compute-dense gain 2–5×",
	}
	models := zoo.Models()
	gens := gpu.Generations()
	var points []sweep.Point
	for _, perf := range models {
		for _, g := range gens {
			cluster := gpu.MustNew(gpu.Spec{Gen: g, Servers: 1, GPUsPerSrv: 1})
			specs := []job.Spec{{
				ID: 1, User: "probe", Perf: perf, Gang: 1,
				TotalMB: perf.RatePerGPU[g] * 1e7, // never finishes inside the horizon
			}}
			points = append(points, point(fmt.Sprintf("%s/%s", perf.Model, g),
				core.Config{Cluster: cluster, Specs: specs, Seed: opt.Seed},
				func() core.Policy { return core.MustNewFairPolicy(core.FairConfig{}) },
				horizon))
		}
	}
	results, err := runPoints(points)
	if err != nil {
		return nil, err
	}
	i := 0
	for _, perf := range models {
		mb := make(map[gpu.Generation]float64)
		for _, g := range gens {
			mb[g] = results[i].ThroughputByUser["probe"]
			i++
		}
		base := mb[gpu.K80]
		t.AddRow(perf.Model, f2(mb[gpu.K80]/base), f2(mb[gpu.P40]/base),
			f2(mb[gpu.P100]/base), f2(mb[gpu.V100]/base))
	}
	return t, nil
}

func e02ClusterComposition(opt Options) (*Table, error) {
	c := gpu.Default200()
	t := &Table{
		ID: "E2", Title: "Default heterogeneous cluster (paper: 200-GPU Azure testbed)",
		Columns: []string{"generation", "servers", "GPUs/server", "GPUs", "mem GB"},
	}
	for _, g := range c.GensPresent() {
		srvs := c.ServersOf(g)
		perSrv := c.Server(srvs[0]).NumGPUs()
		t.AddRow(g.String(), fmt.Sprint(len(srvs)), fmt.Sprint(perSrv),
			fmt.Sprint(c.Capacity(g)), f1(g.MemGB()))
	}
	t.AddRow("total", fmt.Sprint(c.NumServers()), "-", fmt.Sprint(c.NumDevices()), "-")
	return t, nil
}

// e03SingleServerFairness time-slices six equal-ticket users' 1-GPU
// jobs on one 4-GPU server; each must receive ≈1/6 of the GPU time.
func e03SingleServerFairness(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	horizon := simclock.Time(24 * simclock.Hour)
	if opt.Quick {
		horizon = simclock.Time(6 * simclock.Hour)
	}
	var specs []job.Spec
	users := []job.UserID{"u1", "u2", "u3", "u4", "u5", "u6"}
	for _, u := range users {
		specs = append(specs, workload.BatchJobs(u, zoo.MustGet("lstm"), 1, 1, 1e6)...)
	}
	specs, err := workload.AssignIDs(specs)
	if err != nil {
		return nil, err
	}
	cluster := gpu.MustNew(gpu.Spec{Gen: gpu.K80, Servers: 1, GPUsPerSrv: 4})
	res, err := runSim(core.Config{Cluster: cluster, Specs: specs, Seed: opt.Seed},
		core.MustNewFairPolicy(core.FairConfig{}), horizon)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "E3", Title: "6 users × one 1-GPU job on one 4-GPU server",
		Columns: []string{"user", "GPU-hours", "share", "ideal"},
		Notes:   "time-slicing delivers equal shares with >4× more jobs than GPUs impossible statically",
	}
	sh := metrics.ShareFractions(res.TotalUsageByUser())
	usage := res.TotalUsageByUser()
	for _, u := range users {
		t.AddRow(string(u), f1(usage[u]/3600), pct(sh[u]), pct(1.0/6))
	}
	var vals []float64
	for _, u := range users {
		vals = append(vals, sh[u])
	}
	t.AddRow("Jain index", "", f2(metrics.Jain(vals)), "1.00")
	return t, nil
}

// e04GangAwareStride compares gang-aware and naive-blocking stride on
// one 8-GPU pool with mixed gang sizes, driving the engine's stride
// kernel (stride.Select and stride.Charge over candidates carrying
// their passes, as FairPolicy keeps them), and then runs FairPolicy
// itself on the same gangs, one user each, through the engine. The
// engine rows differ only in whether the 8-gang's user ID sorts last
// or first among the users.
func e04GangAwareStride(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	rounds := 20000
	if opt.Quick {
		rounds = 4000
	}
	gangs := []int{8, 4, 2, 1, 1, 1}
	const capacity = 8
	t := &Table{
		ID: "E4", Title: "Mixed gangs (8,4,2,1,1,1) on an 8-GPU pool, equal tickets",
		Columns: []string{"mode", "utilization", "8-GPU job share", "Jain over jobs"},
		Notes: "naive strict stride head-of-line blocks; greedy pass-order fills the pool but shorts the big " +
			"gang; the engine (FairPolicy, one user per job, 360 s rounds) starves the 8-gang when its user " +
			"sorts last and shorts the 4-gang when it sorts first; the water-fill ideal gives the 8-, 4- and " +
			"2-gang 20.8% each",
	}
	row := func(mode string, occupied []float64, pool float64) {
		var used float64
		for _, o := range occupied {
			used += o
		}
		shares := make([]float64, len(occupied))
		for i, o := range occupied {
			shares[i] = o / used
		}
		t.AddRow(mode, pct(used/pool), pct(shares[0]), f2(metrics.Jain(shares)))
	}
	for _, m := range []struct {
		name string
		mode stride.Mode
	}{{"gang-aware (greedy)", stride.GangAware}, {"naive-blocking", stride.NaiveBlocking}} {
		cands := make([]stride.Candidate, len(gangs))
		for i, g := range gangs {
			cands[i] = stride.Candidate{ID: job.ID(i + 1), Gang: g, Tickets: 1, Joins: true}
		}
		occupied := make([]float64, len(gangs))
		var order []int32
		for r := 0; r < rounds; r++ {
			order = stride.Select(m.mode, cands, capacity, order)
			for i := range cands {
				cands[i].Joins = false
			}
			for _, at := range order {
				c := &cands[at]
				res := float64(c.Gang)
				occupied[at] += res
				c.Pass = stride.Charge(c.ID, c.Pass, res*60, 1)
			}
		}
		row(m.name, occupied, float64(rounds*capacity))
	}

	cluster := gpu.MustNew(gpu.Spec{Gen: gpu.K80, Servers: 1, GPUsPerSrv: capacity})
	for _, big := range []struct {
		user  job.UserID
		sorts string
	}{{"u8", "last"}, {"a8", "first"}} {
		users := []job.UserID{big.user, "u4", "u2", "u1a", "u1b", "u1c"}
		var specs []job.Spec
		for i, u := range users {
			specs = append(specs, workload.BatchJobs(u, zoo.MustGet("resnet50"), 1, gangs[i], 1e6)...)
		}
		specs, err := workload.AssignIDs(specs)
		if err != nil {
			return nil, err
		}
		const quantum = 360
		res, err := runSim(core.Config{Cluster: cluster, Specs: specs, Seed: opt.Seed, Quantum: quantum},
			core.MustNewFairPolicy(core.FairConfig{}), simclock.Time(rounds*quantum))
		if err != nil {
			return nil, err
		}
		usage := res.TotalUsageByUser()
		occupied := make([]float64, len(users))
		for i, u := range users {
			occupied[i] = usage[u]
		}
		row(fmt.Sprintf("engine, %s sorts %s", big.user, big.sorts), occupied, res.Utilization.CapacityGPUSeconds)
	}
	return t, nil
}

// e05UserFairness reproduces the paper's headline scenario: a user
// with 16 small jobs shares a 32-GPU cluster with a user running two
// 8-GPU gangs; both get half the GPU time.
func e05UserFairness(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	horizon := simclock.Time(24 * simclock.Hour)
	if opt.Quick {
		horizon = simclock.Time(6 * simclock.Hour)
	}
	build := func() []job.Spec {
		// 40 small jobs (demand 40) vs two 8-gangs (demand 16) on 24
		// GPUs: both demands exceed the 12-GPU fair share, so an
		// equal split is feasible — and only user-level scheduling
		// delivers it. Tiresias equalizes per-job service (flooder
		// wins ∝ job count); Gandiva-RR equalizes rounds (flooder
		// wins ∝ aggregate gang width).
		var specs []job.Spec
		specs = append(specs, workload.BatchJobs("many-small", zoo.MustGet("vae"), 40, 1, 1e6)...)
		specs = append(specs, workload.BatchJobs("few-big", zoo.MustGet("resnet50"), 2, 8, 1e6)...)
		specs, _ = workload.AssignIDs(specs)
		return specs
	}
	cluster := gpu.MustNew(gpu.Spec{Gen: gpu.K80, Servers: 6, GPUsPerSrv: 4})
	t := &Table{
		ID: "E5", Title: "40×1-GPU user vs 2×8-GPU user on 24 GPUs",
		Columns: []string{"policy", "many-small share", "few-big share", "ideal"},
		Notes:   "Gandiva_fair holds 50/50; job-centric baselines hand the flooding user far more",
	}
	var points []sweep.Point
	for i, mk := range []func() core.Policy{
		func() core.Policy { return core.MustNewFairPolicy(core.FairConfig{}) },
		tiresias, gandivaRR,
	} {
		points = append(points, point(fmt.Sprintf("e05/%d", i),
			core.Config{Cluster: cluster, Specs: build(), Seed: opt.Seed}, mk, horizon))
	}
	results, err := runPoints(points)
	if err != nil {
		return nil, err
	}
	for _, res := range results {
		sh := metrics.ShareFractions(res.TotalUsageByUser())
		t.AddRow(res.Policy, pct(sh["many-small"]), pct(sh["few-big"]), "50.0%")
	}
	return t, nil
}

// e06VsBaselines runs four users with skewed job counts (1, 2, 4, 8)
// and equal tickets under every policy, reporting each user's share
// and the worst-case deviation from the 25% entitlement.
func e06VsBaselines(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	horizon := simclock.Time(24 * simclock.Hour)
	if opt.Quick {
		horizon = simclock.Time(6 * simclock.Hour)
	}
	users := []job.UserID{"u1", "u2", "u3", "u4"}
	jobCounts := map[job.UserID]int{"u1": 1, "u2": 2, "u3": 4, "u4": 8}
	build := func() []job.Spec {
		var specs []job.Spec
		for _, u := range users {
			specs = append(specs, workload.BatchJobs(u, zoo.MustGet("gru"), jobCounts[u], 2, 1e6)...)
		}
		specs, _ = workload.AssignIDs(specs)
		return specs
	}
	cluster := gpu.MustNew(gpu.Spec{Gen: gpu.K80, Servers: 4, GPUsPerSrv: 4})
	t := &Table{
		ID: "E6", Title: "4 equal-ticket users with 1/2/4/8 jobs on 16 GPUs",
		Columns: []string{"policy", "u1", "u2", "u3", "u4", "max share error"},
		Notes: "water-filled entitlements are 12.5/25/31.25/31.25% (u1, u2 demand-capped); " +
			"share error is measured against that reference",
	}
	var points []sweep.Point
	for i, mk := range []func() core.Policy{
		func() core.Policy { return core.MustNewFairPolicy(core.FairConfig{}) },
		tiresias, gandivaRR, fifo,
	} {
		points = append(points, point(fmt.Sprintf("e06/%d", i),
			core.Config{Cluster: cluster, Specs: build(), Seed: opt.Seed}, mk, horizon))
	}
	results, err := runPoints(points)
	if err != nil {
		return nil, err
	}
	for _, res := range results {
		sh := metrics.ShareFractions(res.TotalUsageByUser())
		t.AddRow(res.Policy, pct(sh["u1"]), pct(sh["u2"]), pct(sh["u3"]), pct(sh["u4"]),
			pct(res.MaxShareError()))
	}
	return t, nil
}
