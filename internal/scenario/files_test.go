package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
)

// scenarioFile is one committed scenario file: its base name and bytes.
type scenarioFile struct {
	name string
	src  []byte
}

// scenarioFiles reads the committed scenario files in name order.
// sweep.json is a grid (its scenario nests under a "scenario" key), which
// Load refuses.
func scenarioFiles(tb testing.TB) []scenarioFile {
	tb.Helper()
	paths, err := filepath.Glob("../../scenarios/*.json")
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no scenario files: %v", err)
	}
	out := make([]scenarioFile, len(paths))
	for i, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = scenarioFile{filepath.Base(p), b}
	}
	return out
}

// TestNilFaultsIsZeroModel runs every committed scenario without a
// faults block twice — Faults nil, as Build leaves it, and the zero
// faults.Config — and wants one run: the same canonical digest and the
// same trace, byte for byte. failover.json declares outages with no fault
// model, so its compensation books are on both sides.
func TestNilFaultsIsZeroModel(t *testing.T) {
	for _, file := range scenarioFiles(t) {
		name := file.name
		s, err := Load(bytes.NewReader(file.src))
		if err != nil || s.Faults != nil {
			continue // the sweep grid, or a scenario with a fault model
		}
		var digest [2]string
		var trace [2]bytes.Buffer
		for i, fc := range []*faults.Config{nil, {}} {
			cfg, policy, horizon, err := s.Build()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			cfg.Faults = fc
			sim, err := core.New(cfg, policy)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			res, err := sim.Run(horizon)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			digest[i] = core.CanonicalDigest(res)
			if err := res.Log.WriteCSV(&trace[i]); err != nil {
				t.Fatal(err)
			}
		}
		if digest[0] != digest[1] {
			t.Errorf("%s: nil Faults digest %s, zero fault model %s", name, digest[0], digest[1])
		}
		if !bytes.Equal(trace[0].Bytes(), trace[1].Bytes()) {
			t.Errorf("%s: nil Faults and the zero fault model write different traces", name)
		}
	}
}

// FuzzScenario feeds Load and Build arbitrary bytes, seeded from the
// committed scenario files: each input must be refused with an error or
// build a config that core.Config.Validate accepts, and none may panic.
// Inputs that would generate more than a few thousand jobs or GPUs are
// skipped — the target hunts for crashes, not for allocation limits.
//
// Run with: go test -fuzz FuzzScenario -fuzztime 30s ./internal/scenario
func FuzzScenario(f *testing.F) {
	for _, file := range scenarioFiles(f) {
		f.Add(file.src)
	}
	for _, src := range []string{
		`{"users":[{"name":"u","jobs":-1}],"horizon_hours":1}`,
		`{"users":[{"name":"","jobs":1}],"horizon_hours":1}`,
		`{"users":[{"name":"u","jobs":2,"gangs":[{"gang":0,"weight":1}]}],"horizon_hours":1}`,
		`{"users":[{"name":"u","jobs":2,"gangs":[{"gang":1,"weight":-1}]}],"horizon_hours":1}`,
		`{"users":[{"name":"u","jobs":2,"gangs":[{"gang":1,"weight":0}]}],"horizon_hours":1}`,
		`{"users":[{"name":"u","jobs":2,"gangs":[{"gang":-4,"weight":1},{"gang":2,"weight":1}]}],"horizon_hours":1}`,
		`{"users":[{"name":"u","jobs":2,"arrivals_per_hour":-3,"mean_k80_hours":-1}],"horizon_hours":1}`,
		`{"users":[{"name":"u","jobs":2,"mean_k80_hours":1e308,"arrivals_per_hour":1e-308}],"horizon_hours":1e308}`,
		`{"users":[{"name":"u","jobs":2,"models":[]}],"horizon_hours":1,"quantum_secs":-5}`,
		`{"cluster":[{"gen":"K80","servers":0,"gpus_per_server":4}],"users":[{"name":"u","jobs":1}],"horizon_hours":1}`,
		`{"cluster":[{"gen":"K80","servers":-2,"gpus_per_server":-4}],"users":[{"name":"u","jobs":1}],"horizon_hours":1}`,
		`{"users":[{"name":"u","jobs":1}],"horizon_hours":1,"tickets":{"u":-1,"ghost":2}}`,
		`{"users":[{"name":"u","jobs":1}],"horizon_hours":1,"hierarchy":{"o":{"tickets":-1,"members":{"ghost":-1}}}}`,
		`{"users":[{"name":"u","jobs":1}],"horizon_hours":1,"hierarchy":{"o":{"tickets":1,"members":{}}}}`,
		`{"users":[{"name":"u","jobs":1}],"horizon_hours":1,"failures":[{"server":-1,"at_hours":-1,"duration_hours":0}]}`,
		`{"users":[{"name":"u","jobs":1}],"horizon_hours":1,"ticket_changes":[{"at_hours":-1,"user":"u","tickets":-2}]}`,
		`{"users":[{"name":"u","jobs":1}],"horizon_hours":1,"policy":"static","faults":{"degrade_factor":-1,"flaky_servers":-3}}`,
	} {
		f.Add([]byte(src))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if tooBig(s) {
			return
		}
		cfg, policy, horizon, err := s.Build()
		if err != nil {
			return
		}
		if policy == nil || !(horizon > 0) {
			t.Fatalf("Build returned policy %v, horizon %v and no error", policy, horizon)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("Build returned a config Validate refuses: %v", err)
		}
	})
}

// tooBig reports whether building s would generate more than 4096 jobs
// or GPUs.
func tooBig(s *Scenario) bool {
	const limit = 4096
	jobs, gpus := 0, 0
	for _, u := range s.Users {
		if u.Jobs > limit {
			return true
		}
		jobs += max(u.Jobs, 0)
	}
	for _, c := range s.Cluster {
		if c.Servers > limit || c.GPUs > limit {
			return true
		}
		gpus += max(c.Servers, 0) * max(c.GPUs, 0)
	}
	return jobs > limit || gpus > limit
}
