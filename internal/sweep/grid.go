package sweep

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/scenario"
)

// Grid is the JSON schema cmd/gfsweep consumes: one base scenario
// (the schema of internal/scenario, shared with cmd/gfsim -scenario)
// crossed with a list of policies and a list of seeds. Every policy ×
// seed combination becomes one Point; the seed drives both workload
// generation and engine noise, so each seed is an independent draw of
// the same statistical scenario.
type Grid struct {
	// Scenario is the base configuration. Its own policy/seed fields
	// are the fallback when Policies/Seeds are empty.
	Scenario scenario.Scenario `json:"scenario"`

	// Policies to sweep: gandiva-fair (default), tiresias, gandiva-rr,
	// static, fifo. Empty means just the scenario's policy.
	Policies []string `json:"policies,omitempty"`

	// Seeds to sweep. Empty means just the scenario's seed.
	Seeds []int64 `json:"seeds,omitempty"`
}

// LoadGrid parses a grid from JSON, rejecting unknown fields so typos
// fail loudly.
func LoadGrid(r io.Reader) (*Grid, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var g Grid
	if err := dec.Decode(&g); err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	return &g, nil
}

// Points expands the grid into runnable points (policy-major, then
// seed order). Each seed's workload is generated once: the points of
// one seed share its specs, which nothing writes (core.New copies them
// into its event cursor and Config.Validate only reads them). Every
// point carries its own cluster, policy instance and config, so points
// share no mutable state. audit overrides every point's audit mode.
func (g *Grid) Points(audit core.AuditMode) ([]Point, error) {
	policies := g.Policies
	if len(policies) == 0 {
		policies = []string{g.Scenario.Policy}
	}
	seeds := g.Seeds
	if len(seeds) == 0 {
		seeds = []int64{g.Scenario.Seed}
	}
	traces := make([][]job.Spec, len(seeds))
	for i, seed := range seeds {
		sc := g.Scenario // shallow copy; nothing here mutates shared slices
		sc.Seed = seed
		specs, err := sc.Workload()
		if err != nil {
			return nil, fmt.Errorf("sweep: seed %d: %w", seed, err)
		}
		traces[i] = specs
	}
	points := make([]Point, 0, len(policies)*len(seeds))
	for _, pname := range policies {
		for i, seed := range seeds {
			sc := g.Scenario
			sc.Policy = pname
			sc.Seed = seed
			cfg, policy, horizon, err := sc.BuildWith(traces[i])
			if err != nil {
				return nil, fmt.Errorf("sweep: policy %q seed %d: %w", pname, seed, err)
			}
			cfg.Audit = audit
			points = append(points, Point{
				Label:   fmt.Sprintf("%s/seed=%d", policy.Name(), seed),
				Group:   policy.Name(),
				Config:  cfg,
				Policy:  func() (core.Policy, error) { return policy, nil },
				Horizon: horizon,
			})
		}
	}
	return points, nil
}
