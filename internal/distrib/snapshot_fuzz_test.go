package distrib

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/workload"
)

// FuzzRestoreCentral feeds the central's snapshot file to its decoder:
// JSON bytes → State → RestoreCentral on a hub endpoint. A hostile
// snapshot must come back as an error and no central, and a snapshot
// that restores must give a central whose own snapshot restores again;
// no input may panic. Snapshots of more than 4096 GPUs or jobs are
// skipped — the target hunts for crashes, not for allocation limits.
//
// Run with: go test -run '^$' -fuzz FuzzRestoreCentral -fuzztime 60s ./internal/distrib
func FuzzRestoreCentral(f *testing.F) {
	real := hubSnapshot(f)
	f.Add(real)
	// TestRestoreCentralRefusesHostileSnapshot's rows, and the other
	// refusals RestoreCentral makes, on the real snapshot.
	for _, spoil := range []func(st *State){
		func(st *State) { st.Epoch = -1 },
		func(st *State) { st.Epoch = 0 },
		func(st *State) { st.Timeouts = -7 },
		func(st *State) { st.Missed = map[string]int{"agent-1": -1} },
		func(st *State) { st.Missed = map[string]int{"ghost": 1} },
		func(st *State) { st.Agents[1].Name = st.Agents[0].Name },
		func(st *State) { st.Agents[0].Gen = 99 },
		func(st *State) { st.Agents[0].GPUs = 0 },
		func(st *State) { st.Agents = nil },
		func(st *State) { st.Engine = nil },
		func(st *State) { st.Engine.Active = append(st.Engine.Active, st.Engine.Active...) },
	} {
		var st State
		if err := json.Unmarshal(real, &st); err != nil {
			f.Fatal(err)
		}
		spoil(&st)
		raw, err := json.Marshal(&st)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, src := range []string{
		`{}`,
		`{"epoch":1,"agents":[{"name":"a","gen":0,"gpus":1}],"engine":{}}`,
		`{"epoch":1,"agents":[{"name":"a","gen":0,"gpus":1}],"engine":{"active":[{"Spec":{"ID":1,"User":"u","Gang":1,"TotalMB":1}}]}}`,
	} {
		f.Add([]byte(src))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var st State
		if err := json.Unmarshal(data, &st); err != nil || snapshotTooBig(&st) {
			return
		}
		c, err := restoreOnHub(t, &st)
		if (err == nil) != (c != nil) {
			t.Fatalf("RestoreCentral returned central %v and error %v", c != nil, err)
		}
		if c == nil {
			return
		}
		raw, err := json.Marshal(c.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		var again State
		if err := json.Unmarshal(raw, &again); err != nil {
			t.Fatal(err)
		}
		if _, err := restoreOnHub(t, &again); err != nil {
			t.Fatalf("a restored central's own snapshot is refused: %v", err)
		}
	})
}

// hubSnapshot runs a short two-agent hub deployment with snapshots on
// and returns the snapshot file's bytes after its third round.
func hubSnapshot(tb testing.TB) []byte {
	tb.Helper()
	hub := comm.NewHub()
	central := attach(tb, hub, "central")
	waits := startAgents(tb, hub, []gpu.Generation{gpu.K80, gpu.V100}, 2)
	var specs []job.Spec
	specs = append(specs, workload.BatchJobs("alice", zoo.MustGet("lstm"), 2, 1, 0.45)...)
	specs = append(specs, workload.BatchJobs("bob", zoo.MustGet("gru"), 3, 2, 2)...)
	specs, err := workload.AssignIDs(specs)
	if err != nil {
		tb.Fatal(err)
	}
	dir := tb.TempDir()
	c, err := NewCentral(central, core.MustNewFairPolicy(core.FairConfig{}), CentralConfig{Specs: specs, Quantum: 360, SnapshotDir: dir})
	if err != nil {
		tb.Fatal(err)
	}
	if err := c.WaitForAgents(2, 5*time.Second); err != nil {
		tb.Fatal(err)
	}
	if _, err := c.Run(3); err != nil {
		tb.Fatal(err)
	}
	for _, w := range waits {
		if err := <-w; err != nil {
			tb.Fatal(err)
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, SnapshotFile))
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

func restoreOnHub(t *testing.T, st *State) (*Central, error) {
	t.Helper()
	central, err := comm.NewHub().Attach("central")
	if err != nil {
		t.Fatal(err)
	}
	return RestoreCentral(central, core.MustNewFairPolicy(core.FairConfig{}), CentralConfig{Quantum: 360}, st)
}

// snapshotTooBig reports whether restoring st would build more than
// 4096 GPUs or jobs.
func snapshotTooBig(st *State) bool {
	const limit = 4096
	gpus := 0
	for _, a := range st.Agents {
		if a.GPUs > limit {
			return true
		}
		gpus += max(a.GPUs, 0)
	}
	if gpus > limit || len(st.Agents) > limit {
		return true
	}
	cp := st.Engine
	return cp != nil && len(cp.Pending)+len(cp.Active)+len(cp.Done) > limit
}
