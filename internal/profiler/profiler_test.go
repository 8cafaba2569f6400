package profiler

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/workload"
)

// Speedup returns the estimated fast/slow per-GPU rate ratio for a
// job, and whether both estimates exist.
func (p *Profiler) Speedup(id job.ID, fast, slow gpu.Generation) (float64, bool) {
	rf, okf := p.Rate(id, fast)
	rs, oks := p.Rate(id, slow)
	if !okf || !oks || rs <= 0 {
		return 0, false
	}
	return rf / rs, true
}

// Len returns the number of tracked jobs.
func (p *Profiler) Len() int {
	n := 0
	for i := range p.recs {
		if p.recs[i].job != nil {
			n++
		}
	}
	return n
}

// testJob is a job of the given model and ID in slot id, as if an engine
// had admitted it there.
func testJob(model string, id job.ID) *job.Job {
	z := workload.DefaultZoo()
	j := job.MustNew(job.Spec{
		ID: id, User: "u", Perf: z.MustGet(model), Gang: 2, TotalMB: 1e6,
	})
	j.NoteSlot(int(id))
	return j
}

func TestNewValidation(t *testing.T) {
	for _, bad := range []float64{-0.1, math.Inf(1), math.NaN()} {
		if _, err := New(bad, 1); err == nil {
			t.Errorf("New(%v) accepted", bad)
		}
	}
	if _, err := New(0.05, 1); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
}

func TestObserveNoiseless(t *testing.T) {
	p := MustNew(0, 1)
	j := testJob("resnet50", 1)
	p.Observe(j, gpu.V100)
	r, ok := p.Rate(1, gpu.V100)
	if !ok {
		t.Fatal("no estimate after Observe")
	}
	if math.Abs(r-j.Perf.RatePerGPU[gpu.V100]) > 1e-12 {
		t.Fatalf("noiseless estimate %v, want truth %v", r, j.Perf.RatePerGPU[gpu.V100])
	}
	if p.Samples(1, gpu.V100) != 1 {
		t.Fatalf("Samples = %d", p.Samples(1, gpu.V100))
	}
}

func TestUnknownQueries(t *testing.T) {
	p := MustNew(0, 1)
	if _, ok := p.Rate(99, gpu.K80); ok {
		t.Error("Rate for unknown job ok=true")
	}
	if p.Samples(99, gpu.K80) != 0 {
		t.Error("Samples for unknown job")
	}
	j := testJob("vae", 1)
	p.Observe(j, gpu.K80)
	if _, ok := p.Rate(1, gpu.V100); ok {
		t.Error("Rate for unobserved generation ok=true")
	}
	if _, ok := p.Rate(1, gpu.Generation(44)); ok {
		t.Error("Rate for invalid generation ok=true")
	}
	if _, ok := p.Speedup(1, gpu.V100, gpu.K80); ok {
		t.Error("Speedup with one side missing ok=true")
	}
}

func TestEWMAConvergesUnderNoise(t *testing.T) {
	p := MustNew(0.05, 7)
	j := testJob("transformer", 3)
	for i := 0; i < 300; i++ {
		p.Observe(j, gpu.V100)
	}
	r, _ := p.Rate(3, gpu.V100)
	truth := j.Perf.RatePerGPU[gpu.V100]
	if math.Abs(r-truth)/truth > 0.05 {
		t.Fatalf("EWMA estimate %v vs truth %v: error > 5%%", r, truth)
	}
}

func TestProbeAllAndSpeedup(t *testing.T) {
	p := MustNew(0, 1)
	j := testJob("resnext50", 5)
	p.ProbeAll(j)
	for _, g := range gpu.Generations() {
		if p.Samples(5, g) == 0 {
			t.Errorf("generation %v not probed", g)
		}
	}
	s, ok := p.Speedup(5, gpu.V100, gpu.K80)
	if !ok {
		t.Fatal("Speedup not available after ProbeAll")
	}
	want := j.Perf.Speedup(gpu.V100, gpu.K80)
	if math.Abs(s-want) > 1e-9 {
		t.Fatalf("Speedup = %v, want %v", s, want)
	}
}

func TestProbeAllSkipsUnusableGenerations(t *testing.T) {
	perf := &job.Perf{Model: "bigmem", ScalingEff: 0.9, MemGBPerGPU: 20, CheckpointMB: 10}
	perf.RatePerGPU = [gpu.NumGenerations]float64{1, 1, 1, 1} // but only P40 has 24 GB
	j := job.MustNew(job.Spec{ID: 6, User: "u", Perf: perf, Gang: 1, TotalMB: 10})
	p := MustNew(0, 1)
	p.ProbeAll(j)
	if p.Samples(6, gpu.P40) == 0 {
		t.Error("P40 not probed")
	}
	if p.Samples(6, gpu.V100) != 0 {
		t.Error("V100 probed despite memory misfit")
	}
}

func TestObserveUnusablePanics(t *testing.T) {
	perf := &job.Perf{Model: "k80only", ScalingEff: 1, CheckpointMB: 1}
	perf.RatePerGPU[gpu.K80] = 5
	j := job.MustNew(job.Spec{ID: 7, User: "u", Perf: perf, Gang: 1, TotalMB: 10})
	p := MustNew(0, 1)
	defer func() {
		if recover() == nil {
			t.Error("Observe on unusable generation did not panic")
		}
	}()
	p.Observe(j, gpu.V100)
}

func TestRemove(t *testing.T) {
	p := MustNew(0, 1)
	j := testJob("gru", 8)
	p.Observe(j, gpu.K80)
	if p.Len() != 1 {
		t.Fatalf("Len = %d", p.Len())
	}
	p.Remove(j)
	if p.Len() != 0 || p.Samples(8, gpu.K80) != 0 || p.Estimates(j) != nil {
		t.Error("Remove did not clear the record")
	}
	p.Remove(j) // no-op
}

// TestRecordsByPosition: a job's estimates are found through the
// job's slot, agree with the ID index, and a removed job's record is
// reused by the next job in its slot without the removed job — whose
// slot still points there — finding it.
func TestRecordsByPosition(t *testing.T) {
	p := MustNew(0, 1)
	a, b, c := testJob("vae", 1), testJob("gru", 2), testJob("lstm", 3)
	c.NoteSlot(a.Slot()) // the engine hands a's slot on once a retires
	if p.Estimates(a) != nil {
		t.Fatal("estimates before the first observation")
	}
	p.Observe(a, gpu.K80)
	p.Observe(b, gpu.K80)
	p.Observe(b, gpu.K80)
	if e := p.Estimates(b); e == nil || e.Samples(gpu.K80) != 2 || p.Samples(2, gpu.K80) != 2 {
		t.Fatalf("b's estimates %+v, by ID %d samples", e, p.Samples(2, gpu.K80))
	}
	p.Remove(a)
	p.Observe(c, gpu.P100)
	if p.Estimates(c) != &p.recs[a.Slot()] || p.Len() != 2 {
		t.Fatalf("c's record is not a's slot's; %d records", p.Len())
	}
	if p.Estimates(a) != nil || p.Samples(1, gpu.K80) != 0 {
		t.Error("a removed job finds the record its slot was reused for")
	}
	if r, ok := p.Rate(3, gpu.P100); !ok || r != c.Perf.RatePerGPU[gpu.P100] {
		t.Errorf("c's rate by ID %v %v", r, ok)
	}
}

// TestMeasureIsSamplesThenObserve holds Measure to what the engine did
// before it: ProbeAll when the job has no sample on the generation it
// ran on, Observe otherwise, decided by ID. Over a random run of jobs
// arriving, running on random generations and finishing, each arrival in
// the slot last freed as an engine hands them out, two profilers of one
// seed hold bit-identical estimates.
func TestMeasureIsSamplesThenObserve(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	got, want := MustNew(0.1, 9), MustNew(0.1, 9)
	models := workload.DefaultZoo().Names()
	var live []*job.Job
	var free []int // freed slots, last freed first
	slots := 0
	for step, next := 0, job.ID(1); step < 3000; step++ {
		switch r := rng.Intn(10); {
		case r == 0 || len(live) == 0:
			j := testJob(models[rng.Intn(len(models))], next)
			if n := len(free); n > 0 {
				j.NoteSlot(free[n-1])
				free = free[:n-1]
			} else {
				j.NoteSlot(slots)
				slots++
			}
			live = append(live, j)
			next++
		case r == 1:
			i := rng.Intn(len(live))
			got.Remove(live[i])
			want.Remove(live[i])
			free = append(free, live[i].Slot())
			live = append(live[:i], live[i+1:]...)
		default:
			j := live[rng.Intn(len(live))]
			g := gpu.Generation(rng.Intn(gpu.NumGenerations))
			if !j.Perf.FitsOn(g) {
				continue
			}
			got.Measure(j, g)
			if want.Samples(j.ID, g) == 0 {
				want.ProbeAll(j)
			} else {
				want.Observe(j, g)
			}
		}
	}
	if got.Len() != want.Len() || got.Len() != len(live) {
		t.Fatalf("%d and %d records, %d live jobs", got.Len(), want.Len(), len(live))
	}
	for _, j := range live {
		for _, g := range gpu.Generations() {
			r1, ok1 := got.Estimates(j).Rate(g)
			r2, ok2 := want.Rate(j.ID, g)
			if ok1 != ok2 || math.Float64bits(r1) != math.Float64bits(r2) || got.Samples(j.ID, g) != want.Samples(j.ID, g) {
				t.Fatalf("job %d on %v: Measure %v %v, Samples-then-Observe %v %v", j.ID, g, r1, ok1, r2, ok2)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() float64 {
		p := MustNew(0.1, 99)
		j := testJob("dcgan", 4)
		for i := 0; i < 50; i++ {
			p.Observe(j, gpu.P100)
		}
		r, _ := p.Rate(4, gpu.P100)
		return r
	}
	if run() != run() {
		t.Error("same seed produced different estimates")
	}
}
