package core

import (
	"fmt"
	"maps"
	"math"
	"testing"

	"repro/internal/fairshare"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/profiler"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// TestRestoreRefusesHostileBooks feeds Restore checkpoints whose books
// no engine writes — a user the checkpoint's jobs do not name, a
// generation outside the model, a negative, NaN or infinite value, in
// each of the four usage books and the busy and capacity totals, a
// negative event count or a NaN clock — and wants an error and no
// engine, where the unspoilt checkpoint restores. (JSON carries no NaN
// or infinity, so FuzzRestore cannot reach those rows.)
func TestRestoreRefusesHostileBooks(t *testing.T) {
	specs := append(workload.BatchJobs("a", zoo.MustGet("vae"), 2, 1, 1e3),
		workload.BatchJobs("b", zoo.MustGet("lstm"), 2, 2, 1e3)...)
	specs, _ = workload.AssignIDs(specs)
	cfg := Config{Cluster: k80Cluster(1, 4), Specs: specs, Seed: 5}
	s, err := New(cfg, MustNewFairPolicy(FairConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Step(simclock.Time(simclock.Day)); err != nil {
			t.Fatal(err)
		}
	}
	cp := s.Checkpoint()
	if len(cp.Usage["a"]) == 0 || len(cp.Useful) != 2 || len(cp.FairUsage) != 2 || len(cp.Throughput) != 2 {
		t.Fatalf("fixture: books not written for both users: %+v", cp)
	}
	restore := func(cp *Checkpoint) (*Sim, error) {
		return Restore(cfg, MustNewFairPolicy(FairConfig{}), LocalExecutor{}, profiler.MustNew(0, 1), cp)
	}
	if _, err := restore(cp); err != nil {
		t.Fatalf("the unspoilt checkpoint: %v", err)
	}
	inf, nan := math.Inf(1), math.NaN()
	cases := []struct {
		name  string
		spoil func(cp *Checkpoint)
	}{
		{"usage of an unknown user", func(cp *Checkpoint) { cp.Usage["ghost"] = map[gpu.Generation]float64{gpu.K80: 1} }},
		{"usage on an unknown generation", func(cp *Checkpoint) { cp.Usage["a"][gpu.Generation(gpu.NumGenerations)] = 1 }},
		{"negative usage", func(cp *Checkpoint) { cp.Usage["a"][gpu.K80] = -1 }},
		{"NaN usage", func(cp *Checkpoint) { cp.Usage["a"][gpu.K80] = nan }},
		{"infinite usage", func(cp *Checkpoint) { cp.Usage["b"][gpu.K80] = inf }},
		{"useful of an unknown user", func(cp *Checkpoint) { cp.Useful["ghost"] = 1 }},
		{"negative useful", func(cp *Checkpoint) { cp.Useful["a"] = -1 }},
		{"NaN useful", func(cp *Checkpoint) { cp.Useful["b"] = nan }},
		{"fair usage of an unknown user", func(cp *Checkpoint) { cp.FairUsage["ghost"] = 1 }},
		{"-Inf fair usage", func(cp *Checkpoint) { cp.FairUsage["a"] = -inf }},
		{"infinite fair usage", func(cp *Checkpoint) { cp.FairUsage["b"] = inf }},
		{"throughput of an unknown user", func(cp *Checkpoint) { cp.Throughput["ghost"] = 1 }},
		{"NaN throughput", func(cp *Checkpoint) { cp.Throughput["a"] = nan }},
		{"negative throughput", func(cp *Checkpoint) { cp.Throughput["b"] = -0.5 }},
		{"negative busy", func(cp *Checkpoint) { cp.Busy[gpu.K80] = -1 }},
		{"NaN busy", func(cp *Checkpoint) { cp.Busy[gpu.K80] = nan }},
		{"infinite busy", func(cp *Checkpoint) { cp.Busy[gpu.V100] = inf }},
		{"negative capacity", func(cp *Checkpoint) { cp.Capacity[gpu.K80] = -360 }},
		{"NaN capacity", func(cp *Checkpoint) { cp.Capacity[gpu.P40] = nan }},
		{"infinite capacity", func(cp *Checkpoint) { cp.Capacity[gpu.K80] = inf }},
		{"negative migrations", func(cp *Checkpoint) { cp.Migrations = -1 }},
		{"negative trades", func(cp *Checkpoint) { cp.Trades = -1 }},
		{"NaN clock", func(cp *Checkpoint) { cp.Now = simclock.Time(nan) }},
	}
	for _, tc := range cases {
		bad := *cp
		bad.Usage = make(map[job.UserID]map[gpu.Generation]float64, len(cp.Usage))
		for u, byGen := range cp.Usage {
			bad.Usage[u] = maps.Clone(byGen)
		}
		bad.Useful, bad.FairUsage, bad.Throughput = maps.Clone(cp.Useful), maps.Clone(cp.FairUsage), maps.Clone(cp.Throughput)
		tc.spoil(&bad)
		if s, err := restore(&bad); err == nil || s != nil {
			t.Errorf("%s: Restore returned engine %v, error %v; want an error and no engine", tc.name, s != nil, err)
		}
	}
}

// TestRestoreReportsLowestBadJob: a checkpoint that places two jobs on
// devices the cluster does not have is refused with the lower job ID's
// error, the same one on every call — Restore checks the placements in
// job-ID order, not in the order a map hands them out.
func TestRestoreReportsLowestBadJob(t *testing.T) {
	specs, _ := workload.AssignIDs(workload.BatchJobs("a", zoo.MustGet("vae"), 4, 1, 1e3))
	cfg := Config{Cluster: k80Cluster(1, 4), Specs: specs, Seed: 5}
	s, err := New(cfg, MustNewFairPolicy(FairConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(simclock.Time(simclock.Day)); err != nil {
		t.Fatal(err)
	}
	cp := s.Checkpoint()
	lo, hi := cp.Active[1].Spec.ID, cp.Active[3].Spec.ID
	cp.Prev[hi] = []gpu.DeviceID{900}
	cp.Prev[lo] = []gpu.DeviceID{0, 901}
	want := fmt.Sprintf("core: checkpoint places job %d on unknown device 901", lo)
	for i := 0; i < 50; i++ {
		s, err := Restore(cfg, MustNewFairPolicy(FairConfig{}), LocalExecutor{}, profiler.MustNew(0, 1), cp)
		if s != nil || err == nil || err.Error() != want {
			t.Fatalf("call %d: Restore returned engine %v, error %v; want no engine and %q", i, s != nil, err, want)
		}
	}
}

// TestFairPolicyCarriesAcrossRestore hands the policy an engine ran
// under to Restore with that engine's checkpoint. The restored engine's
// jobs are new records with the old IDs; the policy rebinds its books to
// them — the users' credit is what it was — and the next rounds schedule
// the restored engine's own records, clean under the strict auditor. A
// policy that kept the old records would schedule jobs the engine does
// not know.
func TestFairPolicyCarriesAcrossRestore(t *testing.T) {
	specs := append(workload.BatchJobs("a", zoo.MustGet("vae"), 3, 1, 1e4),
		workload.BatchJobs("b", zoo.MustGet("lstm"), 3, 2, 1e4)...)
	specs, _ = workload.AssignIDs(specs)
	cluster := gpu.MustNew(gpu.Spec{Gen: gpu.K80, Servers: 1, GPUsPerSrv: 4}, gpu.Spec{Gen: gpu.V100, Servers: 1, GPUsPerSrv: 4})
	cfg := Config{Cluster: cluster, Specs: specs, Seed: 5, Audit: AuditStrict}
	policy := MustNewFairPolicy(FairConfig{EnableTrading: true})
	s, err := New(cfg, policy)
	if err != nil {
		t.Fatal(err)
	}
	step := func(s *Sim, rounds int) {
		t.Helper()
		for i := 0; i < rounds; i++ {
			if ran, err := s.Step(simclock.Time(simclock.Day)); err != nil || !ran {
				t.Fatalf("round %d: ran %v, %v", s.Rounds()+1, ran, err)
			}
		}
	}
	step(s, 4)
	users := []job.UserID{"a", "b"}
	var credit []fairshare.Entitlement
	for _, u := range users {
		credit = append(credit, policy.Credit(u))
	}
	if credit[0] == (fairshare.Entitlement{}) && credit[1] == (fairshare.Entitlement{}) {
		t.Fatal("fixture: no credit to carry")
	}
	s, err = Restore(cfg, policy, LocalExecutor{}, profiler.MustNew(0, 1), s.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range users {
		if got := policy.Credit(u); got != credit[i] {
			t.Errorf("user %s: credit %v after Restore, %v before", u, got, credit[i])
		}
	}
	step(s, 3)
	if res := s.Result(); !res.Audit.Clean() {
		t.Fatalf("restored engine under the carried policy: %s", res.Audit.Summary())
	}
}
