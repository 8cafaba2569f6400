package scenario

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/simclock"
)

const fullScenario = `{
  "cluster": [
    {"gen": "K80", "servers": 2, "gpus_per_server": 4},
    {"gen": "V100", "servers": 2, "gpus_per_server": 4}
  ],
  "users": [
    {"name": "mem", "jobs": 8, "models": ["vae"], "mean_k80_hours": 2,
     "gangs": [{"gang": 1, "weight": 0.8}, {"gang": 2, "weight": 0.2}]},
    {"name": "dense", "jobs": 8, "models": ["resnext50"], "arrivals_per_hour": 2,
     "gangs": [{"gang": 1, "weight": 1}]}
  ],
  "policy": "gandiva-fair",
  "trading": true,
  "price_policy": "midpoint",
  "tickets": {"mem": 1, "dense": 3},
  "horizon_hours": 24,
  "quantum_secs": 120,
  "seed": 9,
  "failures": [{"server": 1, "at_hours": 2, "duration_hours": 1}],
  "ticket_changes": [{"at_hours": 6, "user": "mem", "tickets": 2}]
}`

func TestLoadAndBuildFull(t *testing.T) {
	s, err := Load(strings.NewReader(fullScenario))
	if err != nil {
		t.Fatal(err)
	}
	cfg, policy, horizon, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Cluster.NumDevices() != 16 {
		t.Errorf("devices = %d", cfg.Cluster.NumDevices())
	}
	if len(cfg.Specs) != 16 {
		t.Errorf("specs = %d", len(cfg.Specs))
	}
	if cfg.Quantum != 120 || cfg.Seed != 9 {
		t.Errorf("quantum=%v seed=%v", cfg.Quantum, cfg.Seed)
	}
	if cfg.Tickets["dense"] != 3 {
		t.Errorf("tickets = %v", cfg.Tickets)
	}
	if len(cfg.Failures) != 1 || cfg.Failures[0].Server != 1 ||
		cfg.Failures[0].At != simclock.Time(2*simclock.Hour) {
		t.Errorf("failures = %+v", cfg.Failures)
	}
	if len(cfg.TicketChanges) != 1 || cfg.TicketChanges[0].Tickets != 2 {
		t.Errorf("ticket changes = %+v", cfg.TicketChanges)
	}
	if policy.Name() != "gandiva-fair" {
		t.Errorf("policy = %s", policy.Name())
	}
	if horizon != simclock.Time(24*simclock.Hour) {
		t.Errorf("horizon = %v", horizon)
	}
	// And the scenario actually runs.
	sim, err := core.New(cfg, policy)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(horizon)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Finished) == 0 {
		t.Error("scenario ran no jobs")
	}
}

func TestDefaultsAndMinimal(t *testing.T) {
	s, err := Load(strings.NewReader(`{
	  "users": [{"name": "u", "jobs": 2}],
	  "horizon_hours": 1
	}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, policy, _, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Cluster.NumDevices() != 200 {
		t.Errorf("default cluster = %d devices", cfg.Cluster.NumDevices())
	}
	if policy.Name() != "gandiva-fair-no-trade" {
		t.Errorf("default policy = %s", policy.Name())
	}
}

func TestHierarchyScenario(t *testing.T) {
	s, err := Load(strings.NewReader(`{
	  "cluster": [{"gen": "P100", "servers": 2, "gpus_per_server": 4}],
	  "users": [{"name": "r1", "jobs": 2}, {"name": "p1", "jobs": 2}],
	  "hierarchy": {
	    "research": {"tickets": 1, "members": {"r1": 1}},
	    "prod": {"tickets": 1, "members": {"p1": 1}}
	  },
	  "horizon_hours": 2
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.Build(); err != nil {
		t.Fatal(err)
	}
}

func TestAllPolicies(t *testing.T) {
	for _, p := range []string{"gandiva-fair", "tiresias", "gandiva-rr", "static", "fifo"} {
		s := &Scenario{
			Users:        []UserSpec{{Name: "u", Jobs: 1}},
			Policy:       p,
			HorizonHours: 1,
		}
		if _, _, _, err := s.Build(); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
}

func TestLoadErrors(t *testing.T) {
	bad := map[string]string{
		"not json":      `{`,
		"unknown field": `{"horizon_hours": 1, "users": [{"name":"u","jobs":1}], "nope": 1}`,
	}
	for name, body := range bad {
		if _, err := Load(strings.NewReader(body)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// The engine knob is gone: a scenario file that still selects one
	// must be refused by name, not run on whatever engine there is.
	_, err := Load(strings.NewReader(`{"horizon_hours": 1, "users": [{"name":"u","jobs":1}], "engine": "rescan"}`))
	if err == nil || !strings.Contains(err.Error(), `unknown field "engine"`) {
		t.Errorf(`scenario with "engine": got %v, want the unknown-field error`, err)
	}
}

func TestBuildErrors(t *testing.T) {
	cases := map[string]Scenario{
		"no horizon":     {Users: []UserSpec{{Name: "u", Jobs: 1}}},
		"no users":       {HorizonHours: 1},
		"bad gen":        {HorizonHours: 1, Users: []UserSpec{{Name: "u", Jobs: 1}}, Cluster: []ClusterSpec{{Gen: "TPU", Servers: 1, GPUs: 4}}},
		"bad policy":     {HorizonHours: 1, Users: []UserSpec{{Name: "u", Jobs: 1}}, Policy: "mystery"},
		"bad price":      {HorizonHours: 1, Users: []UserSpec{{Name: "u", Jobs: 1}}, PricePolicy: "free"},
		"bad model":      {HorizonHours: 1, Users: []UserSpec{{Name: "u", Jobs: 1, Models: []string{"nope"}}}},
		"bad hierarchy":  {HorizonHours: 1, Users: []UserSpec{{Name: "u", Jobs: 1}}, Hierarchy: map[string]OrgSpec{"o": {Tickets: 0, Members: map[string]float64{"u": 1}}}},
		"bad failure":    {HorizonHours: 1, Users: []UserSpec{{Name: "u", Jobs: 1}}, Failures: []FailureSpec{{Server: 999, AtHours: 1, DurationHours: 1}}},
		"bad tkt change": {HorizonHours: 1, Users: []UserSpec{{Name: "u", Jobs: 1}}, TicketChanges: []TicketChangeSpec{{AtHours: 1, User: "", Tickets: 1}}},
	}
	for name, s := range cases {
		s := s
		if _, _, _, err := s.Build(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestGenParseInScenario(t *testing.T) {
	// gpu.ParseGeneration is case-sensitive by design; the scenario
	// schema documents uppercase names.
	if _, err := gpu.ParseGeneration("V100"); err != nil {
		t.Fatal(err)
	}
}

func TestFaultModelScenario(t *testing.T) {
	const src = `{
	  "users": [{"name": "u", "jobs": 4, "models": ["vae"], "mean_k80_hours": 2}],
	  "horizon_hours": 12,
	  "seed": 3,
	  "disable_compensation": true,
	  "failures": [{"server": 0, "at_hours": 1, "duration_hours": 0.5}],
	  "faults": {
	    "server_mtbf_hours": 8,
	    "flaky_servers": 1,
	    "migration_fail_prob": 0.25,
	    "job_crash_mtbf_hours": 6,
	    "quarantine_failures": 3,
	    "quarantine_window_hours": 2,
	    "quarantine_cooloff_hours": 4
	  }
	}`
	s, err := Load(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	cfg, _, _, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	f := cfg.Faults
	if f == nil {
		t.Fatal("faults block did not reach core.Config")
	}
	if f.ServerMTBFHours != 8 || f.FlakyServers != 1 || f.MigrationFailProb != 0.25 ||
		f.JobCrashMTBFHours != 6 || f.QuarantineFailures != 3 {
		t.Errorf("fault knobs mistranslated: %+v", f)
	}
	// Declared failures coexist with the probabilistic model.
	if len(cfg.Failures) != 1 {
		t.Errorf("declared failures dropped: %+v", cfg.Failures)
	}

	// Omitting the faults block leaves Faults nil: the zero fault model
	// (see TestNilFaultsIsZeroModel).
	s2, err := Load(strings.NewReader(`{
	  "users": [{"name": "u", "jobs": 2, "models": ["vae"]}],
	  "horizon_hours": 4
	}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg2, _, _, err := s2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg2.Faults != nil {
		t.Errorf("faults non-nil without a faults block: %+v", cfg2.Faults)
	}

	// An invalid fault knob must fail Build via Config.Validate.
	s3, err := Load(strings.NewReader(`{
	  "users": [{"name": "u", "jobs": 2, "models": ["vae"]}],
	  "horizon_hours": 4,
	  "faults": {"migration_fail_prob": 1.5}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s3.Build(); err == nil {
		t.Error("migration_fail_prob=1.5 accepted")
	}
}
