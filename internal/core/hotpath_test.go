package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// saturatedConfig is the gfperf gpu-scale shape at a chosen size:
// K80/P100/V100 servers of 4 GPUs, users × jobsPerUser wide gangs that
// all arrive at t=0 and never finish, so every round after the first
// is the steady state — each job keeps its devices, nothing arrives,
// nothing retires.
func saturatedConfig(tb testing.TB, serversPerGen, users, jobsPerUser int) Config {
	tb.Helper()
	cluster := gpu.MustNew(
		gpu.Spec{Gen: gpu.K80, Servers: serversPerGen, GPUsPerSrv: 4},
		gpu.Spec{Gen: gpu.P100, Servers: serversPerGen, GPUsPerSrv: 4},
		gpu.Spec{Gen: gpu.V100, Servers: serversPerGen, GPUsPerSrv: 4},
	)
	zoo := workload.DefaultZoo()
	names := zoo.Names()
	specs := make([]workload.UserSpec, users)
	for i := range specs {
		specs[i] = workload.UserSpec{
			User:         job.UserID(fmt.Sprintf("user%04d", i+1)),
			NumJobs:      jobsPerUser,
			MeanK80Hours: 20000,
			Models:       []string{names[i%len(names)], names[(i+3)%len(names)]},
			GangDist:     []workload.GangWeight{{Gang: 4, Weight: 1}, {Gang: 8, Weight: 1}, {Gang: 16, Weight: 1}},
		}
	}
	jobs, err := workload.Generate(zoo, workload.Config{Seed: 42, Users: specs, MaxK80Hours: 1e6})
	if err != nil {
		tb.Fatal(err)
	}
	return Config{Cluster: cluster, Specs: jobs, Quantum: 360, Seed: 42, Audit: AuditStrict}
}

// TestSteadyStateRoundAllocCeiling pins the dense-scratch rule
// (DESIGN.md §8) on a saturated 12,000-GPU cluster: a steady-state
// round may allocate per scheduled job — the Decision's requests, the
// placement Result's map, the stride orders — but nothing per device.
// That measures ≈150 KiB for these 1,200 jobs; the per-device owner
// maps, server sets and per-round job maps this replaced cost 2.1 MB a
// round at the same shape, so the ceiling has 2× headroom and still
// sits 6× below any of them coming back.
func TestSteadyStateRoundAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 12k-GPU cluster")
	}
	s, err := New(saturatedConfig(t, 1000, 8, 150), MustNewFairPolicy(FairConfig{EnableTrading: true}))
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		s.admitArrivals()
		if err := s.runRound(); err != nil {
			t.Fatal(err)
		}
		s.clock.RunUntil(s.clock.Now().Add(s.cfg.Quantum))
	}
	// Every scratch buffer reaches its final size and the profiler has
	// probed every job well before round 12.
	for i := 0; i < 12; i++ {
		step()
	}
	const rounds = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	perRound := float64(after.TotalAlloc-before.TotalAlloc) / rounds

	placedGPUs := 0
	for _, info := range s.execRep.Ran {
		placedGPUs += info.Gang
	}
	if placedGPUs < 10_000 {
		t.Fatalf("only %d GPUs hold jobs: the cluster is not saturated", placedGPUs)
	}
	const ceiling = 320 << 10
	t.Logf("steady-state round: %.0f B allocated, %d GPUs placed", perRound, placedGPUs)
	if perRound > ceiling {
		t.Errorf("steady-state round allocates %.0f B, ceiling %d B", perRound, ceiling)
	}
}

// BenchmarkRoundGPUScale is the gfperf gpu-scale workload (99,996 GPUs,
// 12,800 wide gangs) as a `go test -bench` target for profiling.
func BenchmarkRoundGPUScale(b *testing.B) {
	cfg := saturatedConfig(b, 8333, 16, 800)
	const rounds = 30
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := New(cfg, MustNewFairPolicy(FairConfig{EnableTrading: true}))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(simclock.Time(rounds * 360)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N*rounds), "ms/round")
}
