package workload

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/job"
	"repro/internal/simclock"
)

// generateStable is Generate as it was before arrival order went
// through job.SortByArrival: specs appended user by user, then
// slices.SortStableFunc by arrival. It is the oracle the ordering is
// held to, bit for bit.
func generateStable(z *Zoo, cfg Config) ([]job.Spec, error) {
	if z == nil || z.Len() == 0 {
		return nil, fmt.Errorf("workload: nil or empty zoo")
	}
	if len(cfg.Users) == 0 {
		return nil, fmt.Errorf("workload: no users")
	}
	minH := cfg.MinK80Hours
	if minH <= 0 {
		minH = 0.1
	}
	maxH := cfg.MaxK80Hours
	if maxH <= 0 {
		maxH = 48
	}
	if maxH < minH {
		return nil, fmt.Errorf("workload: MaxK80Hours %v < MinK80Hours %v", maxH, minH)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var specs []job.Spec
	for _, u := range cfg.Users {
		if u.User == "" {
			return nil, fmt.Errorf("workload: user with empty name")
		}
		if u.NumJobs <= 0 {
			return nil, fmt.Errorf("workload: user %s: NumJobs must be positive", u.User)
		}
		models, err := resolveModels(z, u.Models)
		if err != nil {
			return nil, fmt.Errorf("workload: user %s: %w", u.User, err)
		}
		gangs := u.GangDist
		if gangs == nil {
			gangs = PhillyGangDist()
		}
		if err := validateGangDist(gangs); err != nil {
			return nil, fmt.Errorf("workload: user %s: %w", u.User, err)
		}
		mean := u.MeanK80Hours
		if mean <= 0 {
			mean = defaultMeanK80Hours
		}
		sigma := u.SigmaLog
		if sigma <= 0 {
			sigma = defaultSigmaLog
		}
		mu := math.Log(mean) - sigma*sigma/2
		arrival := simclock.Time(0)
		for i := 0; i < u.NumJobs; i++ {
			if u.ArrivalRatePerHour > 0 {
				gap := rng.ExpFloat64() / u.ArrivalRatePerHour * simclock.Hour
				arrival = arrival.Add(gap)
			}
			perf := models[rng.Intn(len(models))]
			gang := sampleGang(rng, gangs)
			hours := math.Exp(mu + sigma*rng.NormFloat64())
			hours = math.Min(math.Max(hours, minH), maxH)
			rate := perf.RatePerGPU[0] * float64(gang) * perf.GangEff(gang)
			specs = append(specs, job.Spec{
				User:    u.User,
				Perf:    perf,
				Gang:    gang,
				TotalMB: rate * hours * simclock.Hour,
				Arrival: arrival,
			})
		}
	}
	slices.SortStableFunc(specs, func(a, b job.Spec) int { return a.Arrival.Compare(b.Arrival) })
	for i := range specs {
		specs[i].ID = job.ID(i + 1)
		if err := specs[i].Validate(); err != nil {
			return nil, fmt.Errorf("workload: generated invalid spec: %w", err)
		}
	}
	return specs, nil
}

// checkGenerateMatchesStable runs Generate and the oracle on cfg and
// requires the same error, or the same specs — IDs, pointers to the
// zoo's profiles and float bits included.
func checkGenerateMatchesStable(t *testing.T, z *Zoo, cfg Config) {
	t.Helper()
	got, gerr := Generate(z, cfg)
	want, werr := generateStable(z, cfg)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("Generate error %v, the oracle's %v", gerr, werr)
	}
	if len(got) != len(want) {
		t.Fatalf("Generate gave %d specs, the oracle %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] || math.Float64bits(got[i].TotalMB) != math.Float64bits(want[i].TotalMB) ||
			math.Float64bits(float64(got[i].Arrival)) != math.Float64bits(float64(want[i].Arrival)) {
			t.Fatalf("spec %d: %+v, the oracle's %+v", i, got[i], want[i])
		}
	}
}

// randomUsers draws n users whose mix is what ties arrival order:
// batch users (every job at t=0), users sharing one arrival rate,
// users with a single job, and Poisson users at their own rates.
func randomUsers(rng *rand.Rand, n int) []UserSpec {
	sharedRate := 0.5 + 4*rng.Float64()
	users := make([]UserSpec, n)
	for i := range users {
		u := UserSpec{User: job.UserID(fmt.Sprintf("u%02d", i)), NumJobs: 1 + rng.Intn(40)}
		switch rng.Intn(5) {
		case 0: // batch: all arrivals at t=0
		case 1:
			u.ArrivalRatePerHour = sharedRate
		case 2:
			u.ArrivalRatePerHour = sharedRate
			u.NumJobs = 1
		case 3:
			u.NumJobs = 1
		default:
			u.ArrivalRatePerHour = 0.1 + 10*rng.Float64()
		}
		if rng.Intn(3) == 0 {
			u.GangDist = []GangWeight{{Gang: 1, Weight: 1}, {Gang: 4, Weight: rng.Float64()}}
		}
		users[i] = u
	}
	return users
}

// FuzzGenerate holds Generate to generateStable on random workloads
// mixing batch users, users with equal rates and single-job users, so
// equal arrival times are common and config order (user order, then
// each user's own draw order) decides them.
func FuzzGenerate(f *testing.F) {
	for _, s := range []struct {
		seed   int64
		nUsers uint8
	}{{1, 1}, {2, 2}, {3, 5}, {4, 12}, {5, 30}, {42, 8}, {7, 3}, {911, 20}} {
		f.Add(s.seed, s.nUsers)
	}
	z := DefaultZoo()
	f.Fuzz(func(t *testing.T, seed int64, nUsers uint8) {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{Seed: seed, Users: randomUsers(rng, 1+int(nUsers)%40)}
		checkGenerateMatchesStable(t, z, cfg)
	})
}

// TestGenerateMatchesStableSort runs the oracle check on fixed shapes:
// all batch users, all users at one rate, all single-job users, a
// tenant-scale mix, and configs that fail, whose error must match.
func TestGenerateMatchesStableSort(t *testing.T) {
	z := DefaultZoo()
	many := func(n, jobs int, rate float64) []UserSpec {
		us := make([]UserSpec, n)
		for i := range us {
			us[i] = UserSpec{User: job.UserID(fmt.Sprintf("t%04d", i)), NumJobs: jobs, ArrivalRatePerHour: rate}
		}
		return us
	}
	cases := map[string]Config{
		"batch":                {Seed: 3, Users: many(6, 50, 0)},
		"equal rates":          {Seed: 4, Users: many(8, 40, 2)},
		"one job":              {Seed: 5, Users: many(50, 1, 0)},
		"one job, equal rates": {Seed: 6, Users: many(50, 1, 1)},
		"tenant mix":           {Seed: 42, Users: randomUsers(rand.New(rand.NewSource(42)), 300)},
		"bad user":             {Seed: 1, Users: []UserSpec{{User: "a", NumJobs: 2}, {User: "b", NumJobs: 0}}},
		"bad model":            {Seed: 1, Users: []UserSpec{{User: "a", NumJobs: 2, Models: []string{"nope"}}, {User: ""}}},
		"bad clamp":            {Seed: 1, Users: many(2, 2, 1), MinK80Hours: 5, MaxK80Hours: 1},
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) { checkGenerateMatchesStable(t, z, cfg) })
	}
}

// TestGenerateAllocsIndependentOfJobs: Generate sizes its output once
// and orders it with one key array, so its allocation count depends on
// the users, not on how many jobs each has.
func TestGenerateAllocsIndependentOfJobs(t *testing.T) {
	z := DefaultZoo()
	allocs := func(jobs int) float64 {
		cfg := Config{Seed: 42, Users: randomUsers(rand.New(rand.NewSource(42)), 20)}
		for i := range cfg.Users {
			cfg.Users[i].NumJobs = jobs
		}
		return testing.AllocsPerRun(5, func() { MustGenerate(z, cfg) })
	}
	small, large := allocs(25), allocs(2500)
	t.Logf("Generate, 20 users: %.0f allocations at 25 jobs each, %.0f at 2,500", small, large)
	if small != large {
		t.Errorf("allocations grow with jobs per user: %.0f at 25, %.0f at 2,500", small, large)
	}
}
