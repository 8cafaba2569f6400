package job

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/gpu"
)

func ckptPerf() *Perf {
	p := &Perf{Model: "m", ScalingEff: 0.9, MemGBPerGPU: 4, CheckpointMB: 100}
	p.RatePerGPU[gpu.K80] = 2
	p.RatePerGPU[gpu.V100] = 5
	return p
}

func TestCheckpointRoundTrip(t *testing.T) {
	j := MustNew(Spec{ID: 7, User: "alice", Perf: ckptPerf(), Gang: 2, TotalMB: 1000, Arrival: 10})
	j.SetRunning(true)
	j.NoteFirstRun(360)
	j.Advance(gpu.K80, 100, 360)
	j.AddOverhead(3)
	j.NoteMigration()
	j.NoteQuantum(true)
	// The engine's round-to-round state: where it last ran, the
	// checkpoint clock, a migration-failure backoff.
	j.NoteDispatch(gpu.V100)
	j.PeriodicCheckpoint(360, 720, 600) // opens the interval at 360
	j.NoteMigrationFailed(9)
	j.NoteMigrationFailed(12)

	cp := j.Checkpoint()
	// Through JSON, as the snapshot file stores it.
	raw, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	var back Checkpoint
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	r, err := FromCheckpoint(back)
	if err != nil {
		t.Fatal(err)
	}
	if r.DoneMB() != j.DoneMB() || r.State() != j.State() ||
		r.AttainedService() != j.AttainedService() ||
		r.OverheadSeconds() != j.OverheadSeconds() ||
		r.Migrations() != j.Migrations() ||
		r.RanLastQuantum() != j.RanLastQuantum() {
		t.Errorf("restored job differs: %+v vs %+v", r, j)
	}
	if g, ok := r.LastGen(); !ok || g != gpu.V100 {
		t.Errorf("last generation lost: %v %v", g, ok)
	}
	if r.MigrationFailures() != 2 {
		t.Errorf("migration failures = %d, want 2", r.MigrationFailures())
	}
	// The pin itself is settled per round: it must still hold through
	// round 12 on the restored job, and not after.
	if r.RefreshPin(12); !r.Pinned() {
		t.Error("restored job not pinned in its last backoff round")
	}
	if r.RefreshPin(13); r.Pinned() {
		t.Error("restored job still pinned after its backoff")
	}
	// The checkpoint clock carries over: 960 − 360 ≥ 600 checkpoints now.
	r.Advance(gpu.K80, 10, 720)
	if r.PeriodicCheckpoint(720, 960, 600); r.CheckpointedMB() != r.DoneMB() {
		t.Errorf("restored checkpoint clock lost: checkpointed %v of %v", r.CheckpointedMB(), r.DoneMB())
	}
	r, err = FromCheckpoint(back) // the checks above moved it
	if err != nil {
		t.Fatal(err)
	}
	if qd, ok := r.QueueDelay(); !ok || qd != 350 {
		t.Errorf("queue delay lost: %v %v", qd, ok)
	}
	if !reflect.DeepEqual(r.Checkpoint(), cp) {
		t.Errorf("re-checkpoint differs:\n%+v\n%+v", r.Checkpoint(), cp)
	}
}

func TestCheckpointFinishedJob(t *testing.T) {
	j := MustNew(Spec{ID: 1, User: "u", Perf: ckptPerf(), Gang: 1, TotalMB: 10, Arrival: 0})
	j.Advance(gpu.V100, 1000, 0)
	if !j.Finished() {
		t.Fatal("job should have finished")
	}
	r, err := FromCheckpoint(j.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Finished() || r.FinishTime() != j.FinishTime() || r.JCT() != j.JCT() {
		t.Errorf("finished state lost: %v vs %v", r, j)
	}
}

func TestCheckpointValidation(t *testing.T) {
	base := MustNew(Spec{ID: 1, User: "u", Perf: ckptPerf(), Gang: 1, TotalMB: 10, Arrival: 0}).Checkpoint()
	for name, mut := range map[string]func(*Checkpoint){
		"bad state":     func(c *Checkpoint) { c.State = State(42) },
		"negative done": func(c *Checkpoint) { c.DoneMB = -1 },
		"overdone":      func(c *Checkpoint) { c.DoneMB = 11 },
		"done too soon": func(c *Checkpoint) { c.State = Done; c.DoneMB = 5 },
		"neg service":   func(c *Checkpoint) { c.GPUSecs[0] = -1 },
		"neg overhead":  func(c *Checkpoint) { c.OverheadSecs = -1 },
		"bad last gen":  func(c *Checkpoint) { c.LastGen = gpu.Generation(gpu.NumGenerations) },
		"neg backoff":   func(c *Checkpoint) { c.PinnedUntil = -1 },
		"nil perf":      func(c *Checkpoint) { c.Spec.Perf = nil },
	} {
		cp := base
		mut(&cp)
		if _, err := FromCheckpoint(cp); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
