package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/job"
	"repro/internal/simclock"
)

// GangWeight is one bucket of the gang-size distribution.
type GangWeight struct {
	Gang   int
	Weight float64
}

// PhillyGangDist is the default gang-size mix, shaped like Microsoft's
// Philly trace: single-GPU jobs dominate, with a tail of 2/4/8/16-GPU
// gangs.
func PhillyGangDist() []GangWeight {
	return []GangWeight{
		{Gang: 1, Weight: 0.70},
		{Gang: 2, Weight: 0.10},
		{Gang: 4, Weight: 0.10},
		{Gang: 8, Weight: 0.08},
		{Gang: 16, Weight: 0.02},
	}
}

// UserSpec describes one tenant's workload.
type UserSpec struct {
	User    job.UserID
	Tickets float64 // fair-share weight (informational here; the scheduler consumes it)

	// ArrivalRatePerHour is the Poisson job-arrival rate. Zero means
	// all jobs arrive at time zero (a batch user).
	ArrivalRatePerHour float64

	// NumJobs is the number of jobs to generate for this user.
	NumJobs int

	// Models restricts the user's jobs to these zoo models; empty
	// means the full zoo. Skewing this per user creates the
	// speedup-heterogeneity that the trading mechanism arbitrages.
	Models []string

	// GangDist overrides the gang-size distribution; nil means
	// PhillyGangDist.
	GangDist []GangWeight

	// MeanK80Hours is the mean standalone runtime of a job on K80s
	// (lognormal, heavy-tailed). Zero means the default 2.0 hours.
	MeanK80Hours float64

	// SigmaLog is the lognormal shape parameter. Zero means the
	// default 1.2 (heavy tail, like Philly).
	SigmaLog float64
}

// Config drives trace generation.
type Config struct {
	Users []UserSpec
	Seed  int64

	// MinK80Hours / MaxK80Hours clamp sampled job durations. Zero
	// values default to 0.1 and 48 hours.
	MinK80Hours float64
	MaxK80Hours float64
}

const (
	defaultMeanK80Hours = 2.0
	defaultSigmaLog     = 1.2

	// maxJobs bounds a trace far past what memory holds, so that
	// summing the users' job counts cannot overflow.
	maxJobs = math.MaxInt32
)

// Generate produces a deterministic job trace for the config, sorted
// by arrival time with IDs assigned in arrival order. Jobs that arrive
// together (a batch user's, all at time zero) stay in config order:
// user order, then each user's own draw order.
func Generate(z *Zoo, cfg Config) ([]job.Spec, error) {
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

	n := 0 // the trace's length, so specs is sized once
	for _, u := range cfg.Users {
		if u.NumJobs > maxJobs-n {
			return nil, fmt.Errorf("workload: more than %d jobs", maxJobs)
		}
		n += max(u.NumJobs, 0)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	specs := make([]job.Spec, 0, n)
	var named []*job.Perf // the models a user names, resolved; reused user to user
	for _, u := range cfg.Users {
		if u.User == "" {
			return nil, fmt.Errorf("workload: user with empty name")
		}
		if u.NumJobs <= 0 {
			return nil, fmt.Errorf("workload: user %s: NumJobs must be positive", u.User)
		}
		models := z.Models()
		if len(u.Models) > 0 {
			var err error
			if named, err = resolveModels(z, u.Models, named[:0]); err != nil {
				return nil, fmt.Errorf("workload: user %s: %w", u.User, err)
			}
			models = named
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
		// lognormal with E[X] = mean ⇒ mu = ln(mean) − sigma²/2.
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
			// TotalMB such that the job's standalone runtime on K80s
			// at its gang size is `hours`.
			rate := perf.RatePerGPU[0] * float64(gang) * perf.GangEff(gang) // K80 gang rate
			specs = append(specs, job.Spec{
				User:    u.User,
				Perf:    perf,
				Gang:    gang,
				TotalMB: rate * hours * simclock.Hour,
				Arrival: arrival,
			})
		}
	}

	job.SortByArrival(specs)
	for i := range specs {
		specs[i].ID = job.ID(i + 1)
		if err := specs[i].Validate(); err != nil {
			return nil, fmt.Errorf("workload: generated invalid spec: %w", err)
		}
	}
	return specs, nil
}

// MustGenerate is Generate but panics on error; for fixtures.
func MustGenerate(z *Zoo, cfg Config) []job.Spec {
	specs, err := Generate(z, cfg)
	if err != nil {
		panic(err)
	}
	return specs
}

// resolveModels appends the named models to out.
func resolveModels(z *Zoo, names []string, out []*job.Perf) ([]*job.Perf, error) {
	for _, n := range names {
		p, err := z.Get(n)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func validateGangDist(gw []GangWeight) error {
	var sum float64
	for _, g := range gw {
		if g.Gang <= 0 {
			return fmt.Errorf("gang size %d must be positive", g.Gang)
		}
		if g.Weight < 0 {
			return fmt.Errorf("negative gang weight")
		}
		sum += g.Weight
	}
	if sum <= 0 {
		return fmt.Errorf("gang distribution has zero total weight")
	}
	return nil
}

func sampleGang(rng *rand.Rand, gw []GangWeight) int {
	var sum float64
	for _, g := range gw {
		sum += g.Weight
	}
	x := rng.Float64() * sum
	for _, g := range gw {
		x -= g.Weight
		if x < 0 {
			return g.Gang
		}
	}
	return gw[len(gw)-1].Gang
}

// BatchJobs is a convenience for experiments: n identical jobs for one
// user, all arriving at time zero, each sized to run standalone for
// k80Hours on K80s at the given gang size.
func BatchJobs(user job.UserID, perf *job.Perf, n, gang int, k80Hours float64) []job.Spec {
	specs := make([]job.Spec, n)
	rate := perf.RatePerGPU[0] * float64(gang) * perf.GangEff(gang)
	for i := range specs {
		specs[i] = job.Spec{
			User:    user,
			Perf:    perf,
			Gang:    gang,
			TotalMB: rate * k80Hours * simclock.Hour,
		}
	}
	return specs
}

// AssignIDs renumbers a spec slice 1..n in place (after concatenating
// hand-built batches) and validates each spec.
func AssignIDs(specs []job.Spec) ([]job.Spec, error) {
	for i := range specs {
		specs[i].ID = job.ID(i + 1)
		if err := specs[i].Validate(); err != nil {
			return nil, err
		}
	}
	return specs, nil
}
