package core

import (
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// Golden canonical digests captured from the pre-incremental (full
// rescan) engine. They pin the byte-identity contract across the
// event-driven rework: iteration order over jobs and users — and
// therefore shared profiler-RNG consumption, float accumulation
// order, and trace-event order — must not change. If one of these
// assertions fires, the engine's deterministic output changed; that
// is a correctness regression, not a test to update casually.
//
// The engine and the test-only from-scratch reference are asserted
// against the SAME golden: the maintained index and solver exist only
// to produce byte-identical output faster.
const (
	goldenChurnDigest  = "d12f3ac598033a27647f5e3233ba8c54eec1e1400ff9d22a1bc4f065736b7cb2"
	goldenFaultyDigest = "3a74983626660aba115e722bd53c4960e6db2aa3017321b52d7edf251da19325"
)

// goldenCluster builds the small heterogeneous cluster the golden
// scenarios run on: 5 K80 servers and 4 V100 servers, 4 GPUs each.
func goldenCluster(t *testing.T) *gpu.Cluster {
	t.Helper()
	c, err := gpu.New(
		gpu.Spec{Gen: gpu.K80, Servers: 5, GPUsPerSrv: 4},
		gpu.Spec{Gen: gpu.V100, Servers: 4, GPUsPerSrv: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// goldenSpecs generates a churny workload: staggered Poisson
// arrivals, finite jobs (finishes and departures), three users.
func goldenSpecs(t *testing.T, seed int64) []job.Spec {
	t.Helper()
	zoo := workload.DefaultZoo()
	names := zoo.Names()
	specs, err := workload.Generate(zoo, workload.Config{
		Seed: seed,
		Users: []workload.UserSpec{
			{User: "alice", NumJobs: 8, ArrivalRatePerHour: 2, MeanK80Hours: 1.5, Models: names[:2]},
			{User: "bob", NumJobs: 6, ArrivalRatePerHour: 1, MeanK80Hours: 2, Models: names[2:4]},
			{User: "carol", NumJobs: 5, ArrivalRatePerHour: 0.5, MeanK80Hours: 1, Models: names[1:3]},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

func goldenChurnConfig(t *testing.T) Config {
	return Config{
		Cluster: goldenCluster(t),
		Specs:   goldenSpecs(t, 1234),
		Tickets: map[job.UserID]float64{"alice": 2, "bob": 1, "carol": 1},
		Quantum: 360,
		TicketChanges: []TicketChange{
			{User: "bob", At: simclock.Time(4 * simclock.Hour), Tickets: 3},
			{User: "alice", At: simclock.Time(8 * simclock.Hour), Tickets: 0.5},
		},
		Seed: 1234,
	}
}

func goldenFaultyConfig(t *testing.T) Config {
	return Config{
		Cluster: goldenCluster(t),
		Specs:   goldenSpecs(t, 99),
		Quantum: 360,
		Failures: []Failure{
			{Server: 1, At: simclock.Time(2 * simclock.Hour), Duration: 2 * simclock.Hour},
		},
		Faults: &faults.Config{
			ServerMTBFHours:        40,
			ServerOutageMeanHours:  0.5,
			FlakyServers:           1,
			FlakyMTBFHours:         2,
			FlakyOutageMinutes:     10,
			DegradeMTBFHours:       20,
			DegradeFactor:          0.6,
			DegradeMeanHours:       1,
			JobCrashMTBFHours:      8,
			MigrationFailProb:      0.3,
			QuarantineFailures:     3,
			QuarantineWindowHours:  2,
			QuarantineCooloffHours: 2,
		},
		Seed: 99,
	}
}

// runGolden runs cfg on the engine, or — reference set — on the
// from-scratch reference model (see UseFromScratchReference).
func runGolden(t *testing.T, cfg Config, trading, reference bool) string {
	t.Helper()
	sim, err := New(cfg, MustNewFairPolicy(FairConfig{EnableTrading: trading}))
	if err != nil {
		t.Fatal(err)
	}
	if reference {
		sim.UseFromScratchReference()
	}
	res, err := sim.Run(simclock.Time(16 * simclock.Hour))
	if err != nil {
		t.Fatal(err)
	}
	return CanonicalDigest(res)
}

func TestGoldenDigestChurn(t *testing.T) {
	for _, reference := range []bool{false, true} {
		if got := runGolden(t, goldenChurnConfig(t), true, reference); got != goldenChurnDigest {
			t.Errorf("reference=%v churn digest = %s, want %s", reference, got, goldenChurnDigest)
		}
	}
}

func TestGoldenDigestFaulty(t *testing.T) {
	for _, reference := range []bool{false, true} {
		if got := runGolden(t, goldenFaultyConfig(t), false, reference); got != goldenFaultyDigest {
			t.Errorf("reference=%v faulty digest = %s, want %s", reference, got, goldenFaultyDigest)
		}
	}
}

// TestTicketScalingInvariant: fairness reads tickets only as ratios, so
// scaling every user's tickets and every ticket change by k must leave
// the run unchanged. Each k is a power of two, under which every product
// and quotient of tickets scales exactly in floating point, so the
// digests must be equal, not merely close.
func TestTicketScalingInvariant(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     func(*testing.T) Config
		trading bool
	}{{"churn", goldenChurnConfig, true}, {"faulty", goldenFaultyConfig, false}} {
		want := runGolden(t, tc.cfg(t), tc.trading, false)
		for _, k := range []float64{2, 1.0 / 8, 1024} {
			cfg := tc.cfg(t)
			tickets := make(map[job.UserID]float64)
			for _, sp := range cfg.Specs {
				tickets[sp.User] = k
			}
			for u, v := range cfg.Tickets {
				tickets[u] = k * v
			}
			cfg.Tickets = tickets
			cfg.TicketChanges = slices.Clone(cfg.TicketChanges)
			for i := range cfg.TicketChanges {
				cfg.TicketChanges[i].Tickets *= k
			}
			if got := runGolden(t, cfg, tc.trading, false); got != want {
				t.Errorf("%s: tickets ×%v give digest %s, unscaled %s", tc.name, k, got, want)
			}
		}
	}
}
