package job

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/gpu"
	"repro/internal/simclock"
)

// perfFixture: runs everywhere, 2× faster on V100 than K80.
func perfFixture() *Perf {
	return &Perf{
		Model:        "toy",
		RatePerGPU:   [gpu.NumGenerations]float64{1.0, 1.2, 1.5, 2.0},
		ScalingEff:   0.9,
		MemGBPerGPU:  8,
		CheckpointMB: 400,
	}
}

func specFixture(p *Perf) Spec {
	return Spec{ID: 1, User: "alice", Perf: p, Gang: 2, TotalMB: 1000, Arrival: 0}
}

func TestPerfValidate(t *testing.T) {
	good := perfFixture()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid perf rejected: %v", err)
	}
	bad := []*Perf{
		{Model: "", RatePerGPU: good.RatePerGPU, ScalingEff: 0.9},
		{Model: "x", RatePerGPU: good.RatePerGPU, ScalingEff: 0},
		{Model: "x", RatePerGPU: good.RatePerGPU, ScalingEff: 1.5},
		{Model: "x", ScalingEff: 0.9}, // no generation
		{Model: "x", RatePerGPU: [gpu.NumGenerations]float64{-1, 0, 0, 1}, ScalingEff: 0.9},
		{Model: "x", RatePerGPU: good.RatePerGPU, ScalingEff: 0.9, MemGBPerGPU: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad perf %d accepted", i)
		}
	}
}

func TestFitsOnMemory(t *testing.T) {
	p := perfFixture()
	p.MemGBPerGPU = 20 // only P40 (24 GB) can hold it
	for _, g := range gpu.Generations() {
		want := g == gpu.P40
		if got := p.FitsOn(g); got != want {
			t.Errorf("FitsOn(%v) = %v, want %v", g, got, want)
		}
	}
	if p.FitsOn(gpu.Generation(42)) {
		t.Error("FitsOn(invalid) = true")
	}
}

func TestSpeedup(t *testing.T) {
	p := perfFixture()
	if s := p.Speedup(gpu.V100, gpu.K80); math.Abs(s-2.0) > 1e-12 {
		t.Errorf("Speedup(V100,K80) = %v, want 2", s)
	}
	if s := p.Speedup(gpu.K80, gpu.V100); math.Abs(s-0.5) > 1e-12 {
		t.Errorf("Speedup(K80,V100) = %v, want 0.5", s)
	}
	p2 := perfFixture()
	p2.RatePerGPU[gpu.K80] = 0
	if s := p2.Speedup(gpu.V100, gpu.K80); s != 0 {
		t.Errorf("Speedup with unusable slow gen = %v, want 0", s)
	}
}

func TestSpecValidate(t *testing.T) {
	p := perfFixture()
	good := specFixture(p)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	mut := []func(*Spec){
		func(s *Spec) { s.User = "" },
		func(s *Spec) { s.Perf = nil },
		func(s *Spec) { s.Gang = 0 },
		func(s *Spec) { s.Gang = -2 },
		func(s *Spec) { s.TotalMB = 0 },
		func(s *Spec) { s.Arrival = -1 },
	}
	for i, m := range mut {
		s := specFixture(p)
		m(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestGangRate(t *testing.T) {
	p := perfFixture()
	j := MustNew(specFixture(p)) // gang 2, eff 0.9
	want := 1.0 * 2 * 0.9
	if r := j.GangRate(gpu.K80); math.Abs(r-want) > 1e-12 {
		t.Errorf("GangRate(K80) = %v, want %v", r, want)
	}
	j1 := MustNew(Spec{ID: 2, User: "a", Perf: p, Gang: 1, TotalMB: 10})
	if r := j1.GangRate(gpu.K80); math.Abs(r-1.0) > 1e-12 {
		t.Errorf("single-GPU GangRate = %v, want 1 (no scaling loss)", r)
	}
}

func TestAdvanceBasics(t *testing.T) {
	j := MustNew(specFixture(perfFixture())) // rate on K80 = 1.8 mb/s
	used, fin := j.Advance(gpu.K80, 100, 0)
	if fin || used != 100 {
		t.Fatalf("Advance = (%v, %v), want (100, false)", used, fin)
	}
	if math.Abs(j.DoneMB()-180) > 1e-9 {
		t.Fatalf("DoneMB = %v, want 180", j.DoneMB())
	}
	if math.Abs(j.GPUSeconds(gpu.K80)-200) > 1e-9 {
		t.Fatalf("GPUSeconds = %v, want 200 (gang 2 × 100s)", j.GPUSeconds(gpu.K80))
	}
	if math.Abs(j.AttainedService()-200) > 1e-9 {
		t.Fatalf("AttainedService = %v, want 200", j.AttainedService())
	}
}

func TestAdvanceCompletion(t *testing.T) {
	j := MustNew(specFixture(perfFixture())) // total 1000 mb, K80 rate 1.8/s → 555.55s
	now := simclock.Time(50)
	used, fin := j.Advance(gpu.K80, 10000, now)
	if !fin {
		t.Fatal("job did not finish")
	}
	wantUsed := 1000.0 / 1.8
	if math.Abs(used-wantUsed) > 1e-9 {
		t.Fatalf("used = %v, want %v", used, wantUsed)
	}
	if j.DoneMB() != j.TotalMB {
		t.Fatalf("DoneMB = %v, want exactly TotalMB", j.DoneMB())
	}
	if !j.Finished() || j.State() != Done {
		t.Fatal("state not Done")
	}
	if got := j.FinishTime(); math.Abs(float64(got)-(50+wantUsed)) > 1e-9 {
		t.Fatalf("FinishTime = %v", got)
	}
	if math.Abs(j.JCT()-(50+wantUsed)) > 1e-9 {
		t.Fatalf("JCT = %v", j.JCT())
	}
}

func TestAdvancePanics(t *testing.T) {
	j := MustNew(specFixture(perfFixture()))
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("negative dur", func() { j.Advance(gpu.K80, -1, 0) })
	p := perfFixture()
	p.RatePerGPU[gpu.P40] = 0
	j2 := MustNew(Spec{ID: 3, User: "a", Perf: p, Gang: 1, TotalMB: 10})
	mustPanic("unusable generation", func() { j2.Advance(gpu.P40, 1, 0) })
	j.Advance(gpu.K80, 1e9, 0) // finish it
	mustPanic("advance done", func() { j.Advance(gpu.K80, 1, 0) })
	mustPanic("SetRunning done", func() { j.SetRunning(true) })
	j3 := MustNew(specFixture(perfFixture()))
	mustPanic("FinishTime unfinished", func() { j3.FinishTime() })
}

func TestOverheadAndMigrationAccounting(t *testing.T) {
	j := MustNew(specFixture(perfFixture()))
	j.AddOverhead(30)
	j.AddOverhead(12)
	j.NoteMigration()
	if j.OverheadSeconds() != 42 {
		t.Errorf("OverheadSeconds = %v, want 42", j.OverheadSeconds())
	}
	if j.Migrations() != 1 {
		t.Errorf("Migrations = %d, want 1", j.Migrations())
	}
	defer func() {
		if recover() == nil {
			t.Error("negative overhead did not panic")
		}
	}()
	j.AddOverhead(-1)
}

// A failed migration pins the job through the round its backoff names;
// the engine settles the pin at each round start.
func TestPinnedThroughLastBackoffRound(t *testing.T) {
	j := MustNew(specFixture(perfFixture()))
	if j.RefreshPin(1); j.Pinned() {
		t.Fatal("fresh job pinned")
	}
	j.NoteMigrationFailed(4) // failed in round 2, backoff 2
	for round, want := range map[int]bool{3: true, 4: true, 5: false, 6: false} {
		if j.RefreshPin(round); j.Pinned() != want {
			t.Errorf("round %d: Pinned = %v, want %v", round, j.Pinned(), want)
		}
	}
	j.NoteMigrationFailed(9)
	if j.MigrationFailures() != 2 {
		t.Errorf("MigrationFailures = %d, want 2", j.MigrationFailures())
	}
	j.ClearMigrationFailures()
	if j.RefreshPin(7); j.Pinned() || j.MigrationFailures() != 0 {
		t.Errorf("after a migration went through: pinned %v, %d failures", j.Pinned(), j.MigrationFailures())
	}
}

// The periodic checkpoint: the first quantum trained through opens the
// interval, a checkpoint falls due once it has run its length, and any
// other checkpoint (suspend, migration) restarts it.
func TestPeriodicCheckpointClock(t *testing.T) {
	j := MustNew(specFixture(perfFixture()))
	step := func(start simclock.Time) {
		j.Advance(gpu.K80, 1, start)
		j.PeriodicCheckpoint(start, start.Add(360), 900)
	}
	step(0) // opens the interval at 0
	step(360)
	if j.CheckpointedMB() != 0 {
		t.Fatalf("checkpointed %v before the interval elapsed", j.CheckpointedMB())
	}
	step(720) // 1080 − 0 ≥ 900: due
	if j.CheckpointedMB() != j.DoneMB() {
		t.Fatalf("no checkpoint when due: %v of %v", j.CheckpointedMB(), j.DoneMB())
	}
	at := j.DoneMB()
	j.NoteCheckpoint(1200) // a suspend: the interval starts over
	step(1440)
	if j.CheckpointedMB() != at {
		t.Errorf("checkpointed again %v s into a restarted interval", 1800-1200)
	}
}

func TestStateTransitionsAndPreemptions(t *testing.T) {
	j := MustNew(specFixture(perfFixture()))
	if j.State() != Runnable {
		t.Fatalf("initial state %v", j.State())
	}
	j.SetRunning(true)
	if j.State() != Running {
		t.Fatalf("state after SetRunning(true) = %v", j.State())
	}
	j.SetRunning(false)
	j.SetRunning(true)
	j.SetRunning(false)
	if j.Preemptions() != 2 {
		t.Errorf("Preemptions = %d, want 2", j.Preemptions())
	}
	// Runnable→Runnable is not a preemption.
	j.SetRunning(false)
	if j.Preemptions() != 2 {
		t.Errorf("Preemptions after no-op = %d, want 2", j.Preemptions())
	}
}

func TestQuantumNotes(t *testing.T) {
	j := MustNew(specFixture(perfFixture()))
	if j.RanLastQuantum() {
		t.Error("fresh job claims it ran")
	}
	j.NoteQuantum(true)
	if !j.RanLastQuantum() {
		t.Error("NoteQuantum(true) not recorded")
	}
	j.NoteQuantum(false)
	if j.RanLastQuantum() {
		t.Error("NoteQuantum(false) not recorded")
	}
}

// Property: progress conservation — splitting a run into arbitrary
// chunks across generations yields the same total minibatches as the
// sum of rate×time, and never exceeds TotalMB.
func TestPropertyProgressConservation(t *testing.T) {
	p := perfFixture()
	f := func(chunks []uint8, genSel []uint8) bool {
		j := MustNew(Spec{ID: 7, User: "u", Perf: p, Gang: 3, TotalMB: 5000})
		var want float64
		now := simclock.Time(0)
		for i, c := range chunks {
			if j.Finished() {
				break
			}
			g := gpu.K80
			if i < len(genSel) {
				g = gpu.Generation(int(genSel[i]) % gpu.NumGenerations)
			}
			d := simclock.Duration(c)
			used, _ := j.Advance(g, d, now)
			want += j.GangRate(g) * used
			now = now.Add(used)
		}
		if j.DoneMB() > j.TotalMB+1e-9 {
			return false
		}
		return math.Abs(j.DoneMB()-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStringCoverage(t *testing.T) {
	j := MustNew(specFixture(perfFixture()))
	if s := j.String(); s == "" {
		t.Error("empty String()")
	}
	for _, st := range []State{Runnable, Running, Done, State(9)} {
		if st.String() == "" {
			t.Errorf("State(%d).String empty", int(st))
		}
	}
}

// TestJobFitsItsSizeClass: the engine allocates one Job per job of the
// workload, and every field it keeps on the record is packed so that
// the record stays in the 208-byte allocation size class.
func TestJobFitsItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Job{}); size > 208 {
		t.Errorf("job.Job is %d bytes, more than the 208-byte size class", size)
	}
}
