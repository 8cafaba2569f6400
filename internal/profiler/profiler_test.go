package profiler

import (
	"math"
	"testing"

	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/workload"
)

func testJob(model string, id job.ID) *job.Job {
	z := workload.DefaultZoo()
	return job.MustNew(job.Spec{
		ID: id, User: "u", Perf: z.MustGet(model), Gang: 2, TotalMB: 1e6,
	})
}

func TestNewValidation(t *testing.T) {
	for _, bad := range []struct{ a, n float64 }{{0, 0.1}, {-1, 0.1}, {1.5, 0.1}, {0.3, -0.1}} {
		if _, err := New(bad.a, bad.n, 1); err == nil {
			t.Errorf("New(%v, %v) accepted", bad.a, bad.n)
		}
	}
	if _, err := New(0.3, 0.05, 1); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
}

func TestObserveNoiseless(t *testing.T) {
	p := MustNew(0.3, 0, 1)
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
	p := MustNew(0.3, 0, 1)
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
	p := MustNew(0.2, 0.05, 7)
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
	p := MustNew(0.3, 0, 1)
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
	p := MustNew(0.3, 0, 1)
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
	p := MustNew(0.3, 0, 1)
	defer func() {
		if recover() == nil {
			t.Error("Observe on unusable generation did not panic")
		}
	}()
	p.Observe(j, gpu.V100)
}

func TestRemove(t *testing.T) {
	p := MustNew(0.3, 0, 1)
	j := testJob("gru", 8)
	p.Observe(j, gpu.K80)
	if p.Len() != 1 {
		t.Fatalf("Len = %d", p.Len())
	}
	p.Remove(8)
	if p.Len() != 0 || p.Samples(8, gpu.K80) != 0 {
		t.Error("Remove did not clear the record")
	}
	p.Remove(8) // no-op
}

func TestDeterminism(t *testing.T) {
	run := func() float64 {
		p := MustNew(0.2, 0.1, 99)
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
