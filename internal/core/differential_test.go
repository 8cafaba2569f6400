package core_test

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// TestDifferentialEngines is the engine equivalence harness: every
// (config, policy, seed) point of the checked-in scenario grids runs
// on the engine and on the test-only from-scratch reference model
// (core's export_test.go), with the strict auditor on, and the two
// canonical SHA-256 digests must be equal. The digest covers the full
// observable output — trace counters, fault counters, and per-user
// occupancy/fair/useful/deficit — so any divergence in the maintained
// placement index or water-fill solver shows up here.
func TestDifferentialEngines(t *testing.T) {
	type point struct {
		label  string
		sc     scenario.Scenario
		policy string
		seed   int64
	}
	var points []point

	// scenarios/sweep.json is a grid: cross its policies × seeds.
	f, err := os.Open("../../scenarios/sweep.json")
	if err != nil {
		t.Fatal(err)
	}
	grid, err := sweep.LoadGrid(f)
	_ = f.Close()
	if err != nil {
		t.Fatal(err)
	}
	seeds := grid.Seeds
	if testing.Short() && len(seeds) > 2 {
		seeds = seeds[:2]
	}
	for _, pol := range grid.Policies {
		for _, seed := range seeds {
			points = append(points, point{
				label:  fmt.Sprintf("sweep/%s/seed=%d", pol, seed),
				sc:     grid.Scenario,
				policy: pol,
				seed:   seed,
			})
		}
	}

	// scenarios/faulty.json is a single scenario (full fault model,
	// declared failure, quarantine): run it as its own point.
	sf, err := os.Open("../../scenarios/faulty.json")
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := scenario.Load(sf)
	_ = sf.Close()
	if err != nil {
		t.Fatal(err)
	}
	points = append(points, point{
		label:  fmt.Sprintf("faulty/%s/seed=%d", "gandiva-fair", faulty.Seed),
		sc:     *faulty,
		policy: faulty.Policy,
		seed:   faulty.Seed,
	})

	for _, pt := range points {
		pt := pt
		t.Run(pt.label, func(t *testing.T) {
			t.Parallel()
			sc := pt.sc
			sc.Policy = pt.policy
			sc.Seed = pt.seed
			engine, reference := runScenarioDigest(t, sc, false), runScenarioDigest(t, sc, true)
			if engine != reference {
				t.Errorf("digests diverge:\n  engine    %s\n  reference %s", engine, reference)
			}
		})
	}
}

// runScenarioDigest builds and runs one scenario to its horizon (the
// strict auditor is the config default), on the from-scratch reference
// when asked, and returns the canonical digest of the result.
func runScenarioDigest(t *testing.T, sc scenario.Scenario, reference bool) string {
	t.Helper()
	cfg, policy, horizon, err := sc.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	sim, err := core.New(cfg, policy)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	if reference {
		sim.UseFromScratchReference()
	}
	res, err := sim.Run(horizon)
	if err != nil {
		t.Fatalf("run (reference=%v): %v", reference, err)
	}
	return core.CanonicalDigest(res)
}
