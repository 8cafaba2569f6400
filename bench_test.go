package gandivafair

// One benchmark per paper artifact (tables and figures, DESIGN.md §5)
// plus micro-benchmarks of the scheduler's hot paths. The experiment
// benches run the same code as cmd/gfbench in quick mode; use
//
//	go test -bench=. -benchmem
//
// to regenerate every artifact and time it.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fairshare"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/placement"
	"repro/internal/simclock"
	"repro/internal/stride"
	"repro/internal/trade"
	"repro/internal/workload"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		tab, err := e.Run(experiments.Options{Quick: true, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatalf("%s: empty table", id)
		}
	}
}

// Paper artifacts.
func BenchmarkE01_Table1_ModelSpeedups(b *testing.B)      { benchExperiment(b, "E1") }
func BenchmarkE02_Table2_ClusterComposition(b *testing.B) { benchExperiment(b, "E2") }
func BenchmarkE03_SingleServerFairness(b *testing.B)      { benchExperiment(b, "E3") }
func BenchmarkE04_GangAwareStride(b *testing.B)           { benchExperiment(b, "E4") }
func BenchmarkE05_UserFairness(b *testing.B)              { benchExperiment(b, "E5") }
func BenchmarkE06_VsTiresias(b *testing.B)                { benchExperiment(b, "E6") }
func BenchmarkE07_WorkConservation(b *testing.B)          { benchExperiment(b, "E7") }
func BenchmarkE08_MigrationOverhead(b *testing.B)         { benchExperiment(b, "E8") }
func BenchmarkE09_LoadBalance(b *testing.B)               { benchExperiment(b, "E9") }
func BenchmarkE10_TradingWinWin(b *testing.B)             { benchExperiment(b, "E10") }
func BenchmarkE11_TradingAtScale(b *testing.B)            { benchExperiment(b, "E11") }
func BenchmarkE12_EndToEnd(b *testing.B)                  { benchExperiment(b, "E12") }

// Ablations.
func BenchmarkAblation_TradePricePolicy(b *testing.B)     { benchExperiment(b, "A1") }
func BenchmarkAblation_Quantum(b *testing.B)              { benchExperiment(b, "A2") }
func BenchmarkAblation_ProfilerNoise(b *testing.B)        { benchExperiment(b, "A3") }
func BenchmarkAblation_FaultTolerance(b *testing.B)       { benchExperiment(b, "A4") }
func BenchmarkAblation_SchedulerScalability(b *testing.B) { benchExperiment(b, "A5") }

// ---------------------------------------------------------------------------
// Component micro-benchmarks: the per-round hot paths whose cost
// bounds how large a cluster one central scheduler can drive.

// BenchmarkStrideSelect1000Jobs runs the engine's stride path:
// stride.Select and stride.Charge over candidates that keep their
// passes by position, as FairPolicy.Decide calls them.
func BenchmarkStrideSelect1000Jobs(b *testing.B) {
	cands := make([]stride.Candidate, 1000)
	for i := range cands {
		cands[i] = stride.Candidate{ID: job.ID(i + 1), Gang: 1 << (i % 4), Tickets: 1, Joins: true}
	}
	order := stride.Select(stride.GangAware, cands, 200, nil) // every job joins
	for i := range cands {
		cands[i].Joins = false
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		order = stride.Select(stride.GangAware, cands, 200, order)
		for _, at := range order {
			c := &cands[at]
			c.Pass = stride.Charge(c.ID, c.Pass, 60, 1)
		}
	}
}

func BenchmarkWaterFilling100Users(b *testing.B) {
	tickets := map[job.UserID]float64{}
	demand := map[job.UserID]float64{}
	for i := 0; i < 100; i++ {
		u := job.UserID(rune('a'+i%26)) + job.UserID(rune('a'+i/26))
		tickets[u] = float64(1 + i%5)
		demand[u] = float64(1 + i%40)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fairshare.Compute(tickets, demand, 200)
	}
}

func BenchmarkTrading10Users(b *testing.B) {
	alloc := fairshare.Allocation{}
	vals := trade.Values{}
	for i := 0; i < 10; i++ {
		u := job.UserID(rune('a' + i))
		alloc[u] = fairshare.Entitlement{gpu.K80: 10, gpu.P100: 5, gpu.V100: 4}
		var v [gpu.NumGenerations]float64
		v[gpu.K80] = 1
		v[gpu.P100] = 1 + float64(i)*0.3
		v[gpu.V100] = 1 + float64(i)*0.5
		vals[u] = v
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := trade.Run(alloc, vals, nil, trade.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlacement200GPUs(b *testing.B) {
	cluster := gpu.Default200()
	zoo := workload.DefaultZoo()
	perf := zoo.MustGet("resnet50")
	var reqs []placement.Request
	id := job.ID(1)
	for _, g := range cluster.GensPresent() {
		left := cluster.Capacity(g)
		for left > 0 {
			gang := 4
			if left < 4 {
				gang = left
			}
			j := job.MustNew(job.Spec{ID: id, User: "u", Perf: perf, Gang: gang, TotalMB: 1e9})
			reqs = append(reqs, placement.Request{Job: j, Gen: g})
			id++
			left -= gang
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := placement.Place(cluster, nil, reqs, placement.Options{AllowMigration: true})
		if len(res.Unplaced) != 0 {
			b.Fatal("unplaced jobs in a saturating request set")
		}
	}
}

func BenchmarkSchedulerRound200GPUs300Jobs(b *testing.B) {
	// One full Decide+Place round at paper scale.
	cluster := gpu.Default200()
	zoo := workload.DefaultZoo()
	specs := workload.MustGenerate(zoo, workload.Config{
		Seed: 1,
		Users: []workload.UserSpec{
			{User: "a", NumJobs: 100, MeanK80Hours: 1e5},
			{User: "b", NumJobs: 100, MeanK80Hours: 1e5},
			{User: "c", NumJobs: 100, MeanK80Hours: 1e5},
		},
		MinK80Hours: 1e5, MaxK80Hours: 1e5,
	})
	sim, err := core.New(core.Config{Cluster: cluster, Specs: specs, Seed: 1},
		core.MustNewFairPolicy(core.FairConfig{EnableTrading: true}))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	// Each iteration advances one more quantum of a persistent run.
	if _, err := sim.Run(simclock.Time(float64(b.N) * 360)); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkSimulatedDay200GPUs(b *testing.B) {
	zoo := workload.DefaultZoo()
	for i := 0; i < b.N; i++ {
		specs := workload.MustGenerate(zoo, workload.Config{
			Seed: int64(i + 1),
			Users: []workload.UserSpec{
				{User: "a", NumJobs: 60, ArrivalRatePerHour: 4, MeanK80Hours: 4},
				{User: "b", NumJobs: 60, ArrivalRatePerHour: 4, MeanK80Hours: 4},
				{User: "c", NumJobs: 60, ArrivalRatePerHour: 4, MeanK80Hours: 4},
				{User: "d", NumJobs: 60, ArrivalRatePerHour: 4, MeanK80Hours: 4},
			},
		})
		res, err := Simulate(Config{Cluster: Default200Cluster(), Specs: specs, Seed: int64(i)},
			MustNewScheduler(SchedulerConfig{EnableTrading: true}), Time(Day))
		if err != nil {
			b.Fatal(err)
		}
		if res.Rounds == 0 {
			b.Fatal("no rounds simulated")
		}
	}
}
