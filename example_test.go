package gandivafair_test

// Runnable godoc examples for the public API. Each prints stable,
// deterministic output (fixed seeds, noiseless profiling where it
// matters) so `go test` verifies the documentation stays true.

import (
	"fmt"

	gf "repro"
)

// The smallest end-to-end run: one user, one job, one server.
func Example() {
	cluster, _ := gf.NewCluster(gf.ServerSpec{Gen: gf.V100, Servers: 1, GPUsPerSrv: 4})
	zoo := gf.DefaultZoo()
	specs, _ := gf.AssignIDs(gf.BatchJobs("alice", zoo.MustGet("resnet50"), 1, 2, 1.0))

	res, _ := gf.Simulate(gf.Config{Cluster: cluster, Specs: specs, Seed: 1},
		gf.MustNewScheduler(gf.SchedulerConfig{}), gf.Time(gf.Day))

	j := res.Finished[0]
	fmt.Printf("%s finished %d jobs; resnet50 ran %.1f× faster on V100 than its K80 hour\n",
		res.Policy, len(res.Finished), gf.Hour/j.JCT())
	// Output:
	// gandiva-fair-no-trade finished 1 jobs; resnet50 ran 3.5× faster on V100 than its K80 hour
}

// Fair share is user-level: a user with many small jobs and a user
// with few big gangs split a contended cluster evenly.
func ExampleSimulate_fairness() {
	cluster, _ := gf.NewCluster(gf.ServerSpec{Gen: gf.K80, Servers: 4, GPUsPerSrv: 4})
	zoo := gf.DefaultZoo()
	var specs []gf.JobSpec
	specs = append(specs, gf.BatchJobs("flooder", zoo.MustGet("vae"), 24, 1, 1e5)...)
	specs = append(specs, gf.BatchJobs("biggang", zoo.MustGet("resnet50"), 2, 8, 1e5)...)
	specs, _ = gf.AssignIDs(specs)

	res, _ := gf.Simulate(gf.Config{Cluster: cluster, Specs: specs, Seed: 2},
		gf.MustNewScheduler(gf.SchedulerConfig{}), gf.Time(gf.Day))

	usage := res.TotalUsageByUser()
	total := usage["flooder"] + usage["biggang"]
	fmt.Printf("flooder %.0f%%, big-gang user %.0f%%\n",
		100*usage["flooder"]/total, 100*usage["biggang"]/total)
	// Output:
	// flooder 50%, big-gang user 50%
}

// The model zoo carries Table-1-shaped heterogeneity: memory-bound
// models barely gain from a V100, compute-dense models gain ~4-5×.
func ExampleZoo_speedups() {
	zoo := gf.DefaultZoo()
	for _, m := range []string{"vae", "resnet50", "transformer"} {
		p := zoo.MustGet(m)
		fmt.Printf("%-12s V100/K80 = %.2f×\n", m, p.Speedup(gf.V100, gf.K80))
	}
	// Output:
	// vae          V100/K80 = 1.22×
	// resnet50     V100/K80 = 3.54×
	// transformer  V100/K80 = 5.20×
}

// Hierarchies make fairness two-level: orgs split the cluster by org
// tickets; members split their org's share by weight.
func ExampleNewHierarchy() {
	h, _ := gf.NewHierarchy(map[string]*gf.Org{
		"research": {Tickets: 1, Weights: map[gf.UserID]float64{"r1": 1, "r2": 1}},
		"prod":     {Tickets: 1, Weights: map[gf.UserID]float64{"p1": 1}},
	})
	users := []gf.UserID{"p1", "r1", "r2"} // the active users, in ID order
	for i, t := range h.FlattenInto(users, nil) {
		fmt.Printf("%s: %.1f\n", users[i], t)
	}
	// Output:
	// p1: 1.0
	// r1: 0.5
	// r2: 0.5
}

// Traces round-trip through CSV, referenced against the zoo.
func ExampleGenerateTrace() {
	zoo := gf.DefaultZoo()
	specs, _ := gf.GenerateTrace(zoo, gf.TraceCfg{
		Seed:  7,
		Users: []gf.UserSpec{{User: "u", NumJobs: 3, Models: []string{"gru"}}},
	})
	for _, s := range specs {
		fmt.Printf("job %d: %s gang=%d\n", s.ID, s.Perf.Model, s.Gang)
	}
	// Output:
	// job 1: gru gang=1
	// job 2: gru gang=1
	// job 3: gru gang=1
}
