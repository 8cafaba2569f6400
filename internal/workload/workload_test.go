package workload

import (
	"math"
	"testing"

	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/simclock"
)

func TestDefaultZoo(t *testing.T) {
	z := DefaultZoo()
	if z.Len() != 12 {
		t.Fatalf("zoo has %d models, want 12", z.Len())
	}
	for _, p := range z.Models() {
		if err := p.Validate(); err != nil {
			t.Errorf("model %s invalid: %v", p.Model, err)
		}
		// Speedups must be monotone across generations (newer ≥ older)
		// and normalized to K80 = 1.
		prev := 0.0
		for _, g := range gpu.Generations() {
			s := p.Speedup(g, gpu.K80)
			if s < prev {
				t.Errorf("%s: speedup not monotone at %v: %v < %v", p.Model, g, s, prev)
			}
			prev = s
		}
		if s := p.Speedup(gpu.K80, gpu.K80); math.Abs(s-1) > 1e-12 {
			t.Errorf("%s: K80 self-speedup = %v", p.Model, s)
		}
	}
}

func TestZooTable1Shape(t *testing.T) {
	// The trading mechanism needs a wide spread of V100 marginal
	// utility: some models ≈1.2×, some ≥4×.
	z := DefaultZoo()
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range z.Models() {
		s := p.Speedup(gpu.V100, gpu.K80)
		lo = math.Min(lo, s)
		hi = math.Max(hi, s)
	}
	if lo > 1.4 {
		t.Errorf("min V100 speedup %v, want a near-1 memory-bound model", lo)
	}
	if hi < 4 {
		t.Errorf("max V100 speedup %v, want a ≥4× compute-bound model", hi)
	}
}

func TestZooLookup(t *testing.T) {
	z := DefaultZoo()
	p, err := z.Get("resnet50")
	if err != nil || p.Model != "resnet50" {
		t.Fatalf("Get(resnet50) = %v, %v", p, err)
	}
	if _, err := z.Get("alexnet"); err == nil {
		t.Error("Get(unknown) succeeded")
	}
	names := z.Names()
	if len(names) != z.Len() {
		t.Fatalf("Names() has %d entries", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i] <= names[i-1] {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
}

func TestNewZooValidation(t *testing.T) {
	if _, err := NewZoo(); err == nil {
		t.Error("empty zoo accepted")
	}
	p := DefaultZoo().MustGet("vae")
	if _, err := NewZoo(p, p); err == nil {
		t.Error("duplicate model accepted")
	}
	bad := &job.Perf{Model: "bad", ScalingEff: 2}
	if _, err := NewZoo(bad); err == nil {
		t.Error("invalid profile accepted")
	}
	z, err := NewZoo(p)
	if err != nil || z.Len() != 1 {
		t.Fatalf("single-model zoo: %v, %v", z, err)
	}
}

func TestSpeedupTable(t *testing.T) {
	z := DefaultZoo()
	rows := z.SpeedupTable()
	if len(rows) != z.Len() {
		t.Fatalf("%d rows, want %d", len(rows), z.Len())
	}
	for _, r := range rows {
		if math.Abs(r.Speedup[gpu.K80]-1) > 1e-12 {
			t.Errorf("%s: K80 column = %v, want 1", r.Model, r.Speedup[gpu.K80])
		}
		if r.Speedup[gpu.V100] <= 1 {
			t.Errorf("%s: V100 column = %v, want >1", r.Model, r.Speedup[gpu.V100])
		}
	}
}

func TestGenerateDeterminism(t *testing.T) {
	z := DefaultZoo()
	cfg := Config{
		Seed: 7,
		Users: []UserSpec{
			{User: "a", NumJobs: 50, ArrivalRatePerHour: 2},
			{User: "b", NumJobs: 30, ArrivalRatePerHour: 1},
		},
	}
	s1 := MustGenerate(z, cfg)
	s2 := MustGenerate(z, cfg)
	if len(s1) != 80 || len(s2) != 80 {
		t.Fatalf("generated %d, %d jobs, want 80", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("trace not deterministic at %d: %+v vs %+v", i, s1[i], s2[i])
		}
	}
	s3 := MustGenerate(z, Config{Seed: 8, Users: cfg.Users})
	same := true
	for i := range s1 {
		if s1[i] != s3[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestGenerateProperties(t *testing.T) {
	z := DefaultZoo()
	specs := MustGenerate(z, Config{
		Seed: 42,
		Users: []UserSpec{
			{User: "u1", NumJobs: 200, ArrivalRatePerHour: 4, MeanK80Hours: 1.5},
			{User: "u2", NumJobs: 100, Models: []string{"vae", "resnet50"}},
		},
	})
	if len(specs) != 300 {
		t.Fatalf("%d specs, want 300", len(specs))
	}
	prevArr := simclock.Time(-1)
	for i, s := range specs {
		if s.ID != job.ID(i+1) {
			t.Fatalf("IDs not dense: spec %d has ID %d", i, s.ID)
		}
		if s.Arrival < prevArr {
			t.Fatalf("arrivals not sorted at %d", i)
		}
		prevArr = s.Arrival
		if err := s.Validate(); err != nil {
			t.Fatalf("invalid generated spec: %v", err)
		}
		if s.User == "u2" {
			if s.Arrival != 0 {
				t.Fatalf("batch user job arrived at %v, want 0", s.Arrival)
			}
			if m := s.Perf.Model; m != "vae" && m != "resnet50" {
				t.Fatalf("u2 got model %s outside its mix", m)
			}
		}
	}
	// Duration clamps: standalone K80 runtime within [0.1h, 48h].
	for _, s := range specs {
		rate := s.Perf.RatePerGPU[gpu.K80] * float64(s.Gang) * s.Perf.GangEff(s.Gang)
		hours := s.TotalMB / rate / simclock.Hour
		if hours < 0.1-1e-9 || hours > 48+1e-9 {
			t.Fatalf("job duration %v hours outside clamp", hours)
		}
	}
}

func TestGenerateGangDistribution(t *testing.T) {
	z := DefaultZoo()
	specs := MustGenerate(z, Config{
		Seed:  1,
		Users: []UserSpec{{User: "u", NumJobs: 5000}},
	})
	counts := map[int]int{}
	for _, s := range specs {
		counts[s.Gang]++
	}
	for _, gw := range PhillyGangDist() {
		frac := float64(counts[gw.Gang]) / 5000
		if math.Abs(frac-gw.Weight) > 0.03 {
			t.Errorf("gang %d frequency %v, want ≈%v", gw.Gang, frac, gw.Weight)
		}
	}
	for g := range counts {
		found := false
		for _, gw := range PhillyGangDist() {
			if gw.Gang == g {
				found = true
			}
		}
		if !found {
			t.Errorf("unexpected gang size %d generated", g)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	z := DefaultZoo()
	cases := []Config{
		{},
		{Users: []UserSpec{{User: "", NumJobs: 1}}},
		{Users: []UserSpec{{User: "u", NumJobs: 0}}},
		{Users: []UserSpec{{User: "u", NumJobs: 1, Models: []string{"nope"}}}},
		{Users: []UserSpec{{User: "u", NumJobs: 1, GangDist: []GangWeight{{Gang: 0, Weight: 1}}}}},
		{Users: []UserSpec{{User: "u", NumJobs: 1, GangDist: []GangWeight{{Gang: 1, Weight: 0}}}}},
		{Users: []UserSpec{{User: "u", NumJobs: 1}}, MinK80Hours: 10, MaxK80Hours: 1},
		{Users: []UserSpec{{User: "u", NumJobs: math.MaxInt}}},
		{Users: []UserSpec{{User: "u", NumJobs: 1 << 30}, {User: "v", NumJobs: 1 << 30}}},
	}
	for i, cfg := range cases {
		if _, err := Generate(z, cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	if _, err := Generate(nil, Config{Users: []UserSpec{{User: "u", NumJobs: 1}}}); err == nil {
		t.Error("nil zoo accepted")
	}
}

func TestBatchJobsAndAssignIDs(t *testing.T) {
	z := DefaultZoo()
	p := z.MustGet("resnet50")
	specs := BatchJobs("alice", p, 4, 2, 1.0)
	if len(specs) != 4 {
		t.Fatalf("%d specs", len(specs))
	}
	specs = append(specs, BatchJobs("bob", z.MustGet("vae"), 2, 8, 0.5)...)
	specs, err := AssignIDs(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range specs {
		if s.ID != job.ID(i+1) {
			t.Fatalf("ID %d at index %d", s.ID, i)
		}
	}
	// Standalone runtime check: gang 2 resnet50 for 1 K80-hour.
	j := job.MustNew(specs[0])
	if r := j.StandaloneTime(gpu.K80); math.Abs(r-simclock.Hour) > 1e-6 {
		t.Errorf("standalone runtime %v, want 1h", r)
	}
}

func TestAssignIDsRejectsInvalid(t *testing.T) {
	specs := []job.Spec{{User: "", Gang: 1, TotalMB: 1}}
	if _, err := AssignIDs(specs); err == nil {
		t.Error("invalid spec accepted")
	}
}
