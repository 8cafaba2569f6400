// Package scenario loads complete simulation scenarios from JSON:
// cluster inventory, workload, tickets, failures, runtime ticket
// changes and policy selection. It is the file-driven front door used
// by cmd/gfsim -scenario, so experiments can be versioned and shared
// as data instead of flag soup.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/fairshare"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/simclock"
	"repro/internal/trade"
	"repro/internal/workload"
)

// Scenario is the JSON schema. All durations are in hours for human
// editing; they convert to simulation seconds on Build.
type Scenario struct {
	// Cluster inventory; empty means the default 200-GPU testbed.
	Cluster []ClusterSpec `json:"cluster,omitempty"`

	// Users drives workload generation. Required unless Jobs is set.
	Users []UserSpec `json:"users,omitempty"`

	// Policy: gandiva-fair (default), tiresias, gandiva-rr, static,
	// fifo.
	Policy string `json:"policy,omitempty"`

	// Trading enables resource trading (gandiva-fair only).
	Trading bool `json:"trading,omitempty"`

	// PricePolicy: geometric (default), midpoint, seller-floor,
	// buyer-ceiling.
	PricePolicy string `json:"price_policy,omitempty"`

	// Hierarchy, when present, switches gandiva-fair to two-level
	// org → user fairness.
	Hierarchy map[string]OrgSpec `json:"hierarchy,omitempty"`

	// Tickets per user (flat fairness); defaults to 1 each.
	Tickets map[string]float64 `json:"tickets,omitempty"`

	HorizonHours float64 `json:"horizon_hours"`
	QuantumSecs  float64 `json:"quantum_secs,omitempty"`
	Seed         int64   `json:"seed,omitempty"`

	DisableMigration bool `json:"disable_migration,omitempty"`

	Failures      []FailureSpec      `json:"failures,omitempty"`
	TicketChanges []TicketChangeSpec `json:"ticket_changes,omitempty"`

	// Faults, when present, turns on the probabilistic fault model
	// (seeded from Seed): transient server crashes, flaky servers,
	// GPU degradation, job crash-restart, migration failures and
	// flaky-server quarantine. Declared Failures above still apply
	// and merge into the same timeline.
	Faults *FaultModelSpec `json:"faults,omitempty"`

	// DisableCompensation turns off fairness-preserving failure
	// compensation (gandiva-fair only) — the ablation where GPU time
	// lost to faults is never repaid.
	DisableCompensation bool `json:"disable_compensation,omitempty"`
}

// ClusterSpec is one group of identical servers.
type ClusterSpec struct {
	Gen     string `json:"gen"`
	Servers int    `json:"servers"`
	GPUs    int    `json:"gpus_per_server"`
}

// UserSpec drives one user's workload generation.
type UserSpec struct {
	Name            string     `json:"name"`
	Jobs            int        `json:"jobs"`
	ArrivalsPerHour float64    `json:"arrivals_per_hour,omitempty"`
	MeanK80Hours    float64    `json:"mean_k80_hours,omitempty"`
	Models          []string   `json:"models,omitempty"`
	Gangs           []GangSpec `json:"gangs,omitempty"` // default: Philly mix (1..16)
}

// GangSpec is one bucket of a user's gang-size distribution.
type GangSpec struct {
	Gang   int     `json:"gang"`
	Weight float64 `json:"weight"`
}

// OrgSpec is one organization in a hierarchy.
type OrgSpec struct {
	Tickets float64            `json:"tickets"`
	Members map[string]float64 `json:"members"` // user → weight
}

// FaultModelSpec is the JSON form of faults.Config — the knobs of
// the seeded probabilistic fault model. Zero-valued rate knobs leave
// that fault class disabled; zero-valued shape knobs take the
// documented defaults (see internal/faults).
type FaultModelSpec struct {
	ServerMTBFHours       float64 `json:"server_mtbf_hours,omitempty"`
	ServerOutageMeanHours float64 `json:"server_outage_mean_hours,omitempty"`

	FlakyServers       int     `json:"flaky_servers,omitempty"`
	FlakyMTBFHours     float64 `json:"flaky_mtbf_hours,omitempty"`
	FlakyOutageMinutes float64 `json:"flaky_outage_minutes,omitempty"`

	DegradeMTBFHours float64 `json:"degrade_mtbf_hours,omitempty"`
	DegradeFactor    float64 `json:"degrade_factor,omitempty"`
	DegradeMeanHours float64 `json:"degrade_mean_hours,omitempty"`

	JobCrashMTBFHours float64 `json:"job_crash_mtbf_hours,omitempty"`
	CheckpointSecs    float64 `json:"checkpoint_secs,omitempty"`

	MigrationFailProb         float64 `json:"migration_fail_prob,omitempty"`
	MigrationBackoffRounds    int     `json:"migration_backoff_rounds,omitempty"`
	MigrationBackoffCapRounds int     `json:"migration_backoff_cap_rounds,omitempty"`

	QuarantineFailures     int     `json:"quarantine_failures,omitempty"`
	QuarantineWindowHours  float64 `json:"quarantine_window_hours,omitempty"`
	QuarantineCooloffHours float64 `json:"quarantine_cooloff_hours,omitempty"`

	MinOutageSecs float64 `json:"min_outage_secs,omitempty"`
}

func (f *FaultModelSpec) toConfig() *faults.Config {
	if f == nil {
		return nil
	}
	return &faults.Config{
		ServerMTBFHours:           f.ServerMTBFHours,
		ServerOutageMeanHours:     f.ServerOutageMeanHours,
		FlakyServers:              f.FlakyServers,
		FlakyMTBFHours:            f.FlakyMTBFHours,
		FlakyOutageMinutes:        f.FlakyOutageMinutes,
		DegradeMTBFHours:          f.DegradeMTBFHours,
		DegradeFactor:             f.DegradeFactor,
		DegradeMeanHours:          f.DegradeMeanHours,
		JobCrashMTBFHours:         f.JobCrashMTBFHours,
		CheckpointSecs:            f.CheckpointSecs,
		MigrationFailProb:         f.MigrationFailProb,
		MigrationBackoffRounds:    f.MigrationBackoffRounds,
		MigrationBackoffCapRounds: f.MigrationBackoffCapRounds,
		QuarantineFailures:        f.QuarantineFailures,
		QuarantineWindowHours:     f.QuarantineWindowHours,
		QuarantineCooloffHours:    f.QuarantineCooloffHours,
		MinOutageSecs:             f.MinOutageSecs,
	}
}

// FailureSpec schedules a server outage.
type FailureSpec struct {
	Server        int     `json:"server"`
	AtHours       float64 `json:"at_hours"`
	DurationHours float64 `json:"duration_hours"`
}

// TicketChangeSpec reassigns a user's tickets at runtime.
type TicketChangeSpec struct {
	AtHours float64 `json:"at_hours"`
	User    string  `json:"user"`
	Tickets float64 `json:"tickets"`
}

// Load parses a scenario from JSON, rejecting unknown fields so typos
// fail loudly.
func Load(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return &s, nil
}

// Build materializes the scenario: a validated engine config, the
// selected policy, and the horizon.
func (s *Scenario) Build() (core.Config, core.Policy, simclock.Time, error) {
	var zero core.Config
	if s.HorizonHours <= 0 {
		return zero, nil, 0, fmt.Errorf("scenario: horizon_hours must be positive")
	}

	cluster, err := s.buildCluster()
	if err != nil {
		return zero, nil, 0, err
	}
	zoo := workload.DefaultZoo()
	specs, err := s.buildWorkload(zoo)
	if err != nil {
		return zero, nil, 0, err
	}

	cfg := core.Config{
		Cluster:          cluster,
		Specs:            specs,
		Quantum:          s.QuantumSecs,
		Seed:             s.Seed,
		DisableMigration: s.DisableMigration,
		Faults:           s.Faults.toConfig(),
	}
	if len(s.Tickets) > 0 {
		cfg.Tickets = make(map[job.UserID]float64, len(s.Tickets))
		for u, t := range s.Tickets {
			cfg.Tickets[job.UserID(u)] = t
		}
	}
	for _, f := range s.Failures {
		cfg.Failures = append(cfg.Failures, core.Failure{
			Server:   gpu.ServerID(f.Server),
			At:       simclock.Time(f.AtHours * simclock.Hour),
			Duration: f.DurationHours * simclock.Hour,
		})
	}
	for _, tc := range s.TicketChanges {
		cfg.TicketChanges = append(cfg.TicketChanges, core.TicketChange{
			At:      simclock.Time(tc.AtHours * simclock.Hour),
			User:    job.UserID(tc.User),
			Tickets: tc.Tickets,
		})
	}

	policy, err := s.buildPolicy()
	if err != nil {
		return zero, nil, 0, err
	}
	if err := cfg.Validate(); err != nil {
		return zero, nil, 0, err
	}
	return cfg, policy, simclock.Time(s.HorizonHours * simclock.Hour), nil
}

func (s *Scenario) buildCluster() (*gpu.Cluster, error) {
	if len(s.Cluster) == 0 {
		return gpu.Default200(), nil
	}
	var specs []gpu.Spec
	for _, c := range s.Cluster {
		gen, err := gpu.ParseGeneration(c.Gen)
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		specs = append(specs, gpu.Spec{Gen: gen, Servers: c.Servers, GPUsPerSrv: c.GPUs})
	}
	return gpu.New(specs...)
}

func (s *Scenario) buildWorkload(zoo *workload.Zoo) ([]job.Spec, error) {
	if len(s.Users) == 0 {
		return nil, fmt.Errorf("scenario: no users")
	}
	var users []workload.UserSpec
	for _, u := range s.Users {
		us := workload.UserSpec{
			User:               job.UserID(u.Name),
			NumJobs:            u.Jobs,
			ArrivalRatePerHour: u.ArrivalsPerHour,
			MeanK80Hours:       u.MeanK80Hours,
			Models:             u.Models,
		}
		for _, g := range u.Gangs {
			us.GangDist = append(us.GangDist, workload.GangWeight{Gang: g.Gang, Weight: g.Weight})
		}
		users = append(users, us)
	}
	return workload.Generate(zoo, workload.Config{Seed: s.Seed, Users: users})
}

// buildPolicy builds the scenario's policy through NewPolicy: for
// gandiva-fair the trading, compensation, price policy and hierarchy it
// describes, and for a static quota its users, in their listed order,
// as the holders.
func (s *Scenario) buildPolicy() (core.Policy, error) {
	fc := core.FairConfig{
		EnableTrading:       s.Trading,
		DisableCompensation: s.DisableCompensation,
	}
	if s.Policy == "" || s.Policy == "gandiva-fair" {
		switch s.PricePolicy {
		case "", "geometric":
			fc.Trade.Policy = trade.Geometric
		case "midpoint":
			fc.Trade.Policy = trade.Midpoint
		case "seller-floor":
			fc.Trade.Policy = trade.SellerFloor
		case "buyer-ceiling":
			fc.Trade.Policy = trade.BuyerCeiling
		default:
			return nil, fmt.Errorf("scenario: unknown price_policy %q", s.PricePolicy)
		}
		if len(s.Hierarchy) > 0 {
			orgs := make(map[string]*fairshare.Org, len(s.Hierarchy))
			for name, o := range s.Hierarchy {
				weights := make(map[job.UserID]float64, len(o.Members))
				for u, w := range o.Members {
					weights[job.UserID(u)] = w
				}
				orgs[name] = &fairshare.Org{Tickets: o.Tickets, Weights: weights}
			}
			h, err := fairshare.NewHierarchy(orgs)
			if err != nil {
				return nil, err
			}
			fc.Hierarchy = h
		}
	}
	users := make([]job.UserID, len(s.Users))
	for i, u := range s.Users {
		users[i] = job.UserID(u.Name)
	}
	return NewPolicy(s.Policy, fc, users)
}

// NewPolicy builds a policy by name: gandiva-fair ("" too) from fc, or
// one of the baselines tiresias, gandiva-rr, static and fifo. users is
// the static quota's holder order, which each caller keeps its own.
func NewPolicy(name string, fc core.FairConfig, users []job.UserID) (core.Policy, error) {
	switch name {
	case "", "gandiva-fair":
		return core.NewFairPolicy(fc)
	case "tiresias":
		return baselines.NewTiresias(), nil
	case "gandiva-rr":
		return baselines.NewGandivaRR(), nil
	case "static":
		return baselines.NewStaticQuota(users), nil
	case "fifo":
		return baselines.NewFIFO(), nil
	default:
		return nil, fmt.Errorf("scenario: unknown policy %q", name)
	}
}
