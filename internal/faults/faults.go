// Package faults is the simulator's probabilistic fault model: a
// seeded, deterministic generator of fault schedules (transient server
// crashes, flaky servers, per-GPU degradation), a compiled per-server
// interval timeline the engine queries each round in O(1) amortized
// time, a quarantine circuit breaker that pulls repeatedly failing
// servers out of placement, and an online injector for faults that
// depend on runtime state (job crash-restart, migration failure).
//
// Everything is driven by explicit seeds: the same Config, cluster
// shape, horizon and seed always produce the identical schedule and
// the identical per-round draw stream, so faulted runs replay
// byte-for-byte — the property the soak harness (cmd/gfsoak) asserts.
package faults

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/gpu"
	"repro/internal/simclock"
)

// Config tunes the probabilistic fault model. The zero value disables
// every mechanism; each knob enables its mechanism independently.
// Rates are expressed as mean times between events so configs read as
// hardware reliability numbers.
type Config struct {
	// ServerMTBFHours is the per-server mean time between transient
	// crashes (exponential inter-arrival). 0 disables transient
	// crashes.
	ServerMTBFHours float64

	// ServerOutageMeanHours is the mean transient-outage duration
	// (exponential, floored at MinOutageSecs). 0 means 1 hour.
	ServerOutageMeanHours float64

	// FlakyServers designates this many servers (picked
	// deterministically from the seed) as flaky: they suffer repeated
	// short outages. 0 disables flakiness.
	FlakyServers int

	// FlakyMTBFHours is a flaky server's mean time between failures.
	// 0 means 2 hours.
	FlakyMTBFHours float64

	// FlakyOutageMinutes is a flaky server's mean outage duration.
	// 0 means 10 minutes.
	FlakyOutageMinutes float64

	// DegradeMTBFHours is the per-server mean time between GPU
	// degradation episodes (thermal throttling, a sick device slowing
	// the gang). 0 disables degradation.
	DegradeMTBFHours float64

	// DegradeFactor is the throughput multiplier while degraded, in
	// (0, 1]. 0 means 0.5.
	DegradeFactor float64

	// DegradeMeanHours is the mean degradation-episode duration.
	// 0 means 2 hours.
	DegradeMeanHours float64

	// JobCrashMTBFHours is the per-job mean time between crashes while
	// running; a crashed job loses progress back to its last
	// checkpoint and restarts. 0 disables job crashes.
	JobCrashMTBFHours float64

	// CheckpointSecs is the periodic checkpoint interval while a job
	// runs continuously; suspend and migration also checkpoint (the
	// Gandiva mechanism serializes state on both). A crash loses at
	// most this much progress. 0 means 1800 s.
	CheckpointSecs float64

	// MigrationFailProb is the probability one migration attempt
	// fails: the job pays the migration cost, stays put, and retries
	// under capped exponential backoff. 0 disables.
	MigrationFailProb float64

	// MigrationBackoffRounds is the backoff after the first failed
	// migration, in scheduling rounds; it doubles per consecutive
	// failure up to MigrationBackoffCapRounds. Zeros mean 2 and 32.
	MigrationBackoffRounds    int
	MigrationBackoffCapRounds int

	// QuarantineFailures is the circuit-breaker threshold: a server
	// observed failing this many times within QuarantineWindowHours is
	// quarantined (excluded from placement and backfill) for
	// QuarantineCooloffHours. 0 disables quarantine.
	QuarantineFailures int

	// QuarantineWindowHours is the sliding failure-counting window.
	// 0 means 2 hours.
	QuarantineWindowHours float64

	// QuarantineCooloffHours is how long a tripped server stays
	// excluded. 0 means 4 hours.
	QuarantineCooloffHours float64

	// MinOutageSecs floors generated outage durations so an outage is
	// observable at round granularity. 0 means 360 s.
	MinOutageSecs float64
}

// WithDefaults returns the config with zero knobs replaced by their
// documented defaults. Enablement flags (MTBFs, probabilities, counts
// that are zero) are left untouched.
func (c Config) WithDefaults() Config {
	if c.ServerOutageMeanHours == 0 {
		c.ServerOutageMeanHours = 1
	}
	if c.FlakyMTBFHours == 0 {
		c.FlakyMTBFHours = 2
	}
	if c.FlakyOutageMinutes == 0 {
		c.FlakyOutageMinutes = 10
	}
	if c.DegradeFactor == 0 {
		c.DegradeFactor = 0.5
	}
	if c.DegradeMeanHours == 0 {
		c.DegradeMeanHours = 2
	}
	if c.CheckpointSecs == 0 {
		c.CheckpointSecs = 1800
	}
	if c.MigrationBackoffRounds == 0 {
		c.MigrationBackoffRounds = 2
	}
	if c.MigrationBackoffCapRounds == 0 {
		c.MigrationBackoffCapRounds = 32
	}
	if c.QuarantineWindowHours == 0 {
		c.QuarantineWindowHours = 2
	}
	if c.QuarantineCooloffHours == 0 {
		c.QuarantineCooloffHours = 4
	}
	if c.MinOutageSecs == 0 {
		c.MinOutageSecs = 360
	}
	return c
}

// Validate checks the config.
func (c Config) Validate() error {
	if c.ServerMTBFHours < 0 || c.ServerOutageMeanHours < 0 ||
		c.FlakyMTBFHours < 0 || c.FlakyOutageMinutes < 0 ||
		c.DegradeMTBFHours < 0 || c.DegradeMeanHours < 0 ||
		c.JobCrashMTBFHours < 0 || c.CheckpointSecs < 0 || c.MinOutageSecs < 0 ||
		c.QuarantineWindowHours < 0 || c.QuarantineCooloffHours < 0 {
		return fmt.Errorf("faults: negative duration or rate")
	}
	if c.FlakyServers < 0 {
		return fmt.Errorf("faults: negative FlakyServers")
	}
	if c.MigrationFailProb < 0 || c.MigrationFailProb > 1 {
		return fmt.Errorf("faults: MigrationFailProb %v outside [0,1]", c.MigrationFailProb)
	}
	if c.MigrationBackoffRounds < 0 || c.MigrationBackoffCapRounds < 0 {
		return fmt.Errorf("faults: negative migration backoff")
	}
	if c.QuarantineFailures < 0 {
		return fmt.Errorf("faults: negative QuarantineFailures")
	}
	if c.DegradeFactor < 0 || c.DegradeFactor > 1 {
		return fmt.Errorf("faults: DegradeFactor %v outside (0,1]", c.DegradeFactor)
	}
	return nil
}

// Outage kinds as recorded in generated schedules.
const (
	OutageDeclared = "declared" // from core.Config.Failures
	OutageCrash    = "crash"    // generated transient crash
	OutageFlaky    = "flaky"    // generated flaky-server burst
)

// Outage is one server-down interval.
type Outage struct {
	Server   gpu.ServerID
	At       simclock.Time
	Duration simclock.Duration
	Kind     string
}

// Degradation is one slowed-server interval: jobs running any GPU of
// the server progress at Factor of their healthy rate.
type Degradation struct {
	Server   gpu.ServerID
	At       simclock.Time
	Duration simclock.Duration
	Factor   float64
}

// Schedule is a fully materialized fault schedule: every interval is
// known up front, so the same schedule replays identically.
type Schedule struct {
	Outages      []Outage
	Degradations []Degradation
}

// Generate materializes the probabilistic part of a schedule for a
// cluster of numServers over [0, horizon) from a seed. The same
// inputs always yield the identical schedule: servers are visited in
// ID order and each mechanism draws from the single seeded stream in
// a fixed sequence.
func Generate(cfg Config, numServers int, horizon simclock.Time, seed int64) (*Schedule, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if numServers <= 0 {
		return nil, fmt.Errorf("faults: numServers %d must be positive", numServers)
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("faults: non-positive horizon")
	}
	cfg = cfg.WithDefaults()
	// Distinct stream from the profiler's (which seeds rand.NewSource
	// with the raw scenario seed).
	rng := rand.New(rand.NewSource(seed ^ 0x5fa77db4c3e19a71))
	sched := &Schedule{}

	if cfg.ServerMTBFHours > 0 {
		mtbf := cfg.ServerMTBFHours * simclock.Hour
		mean := cfg.ServerOutageMeanHours * simclock.Hour
		for s := 0; s < numServers; s++ {
			t := simclock.Time(rng.ExpFloat64() * mtbf)
			for t < horizon {
				dur := math.Max(cfg.MinOutageSecs, rng.ExpFloat64()*mean)
				sched.Outages = append(sched.Outages, Outage{
					Server: gpu.ServerID(s), At: t, Duration: dur, Kind: OutageCrash,
				})
				t = t.Add(dur + rng.ExpFloat64()*mtbf)
			}
		}
	}

	if cfg.FlakyServers > 0 {
		n := cfg.FlakyServers
		if n > numServers {
			n = numServers
		}
		flaky := rng.Perm(numServers)[:n]
		slices.Sort(flaky)
		mtbf := cfg.FlakyMTBFHours * simclock.Hour
		mean := cfg.FlakyOutageMinutes * 60
		for _, s := range flaky {
			t := simclock.Time(rng.ExpFloat64() * mtbf)
			for t < horizon {
				dur := math.Max(cfg.MinOutageSecs, rng.ExpFloat64()*mean)
				sched.Outages = append(sched.Outages, Outage{
					Server: gpu.ServerID(s), At: t, Duration: dur, Kind: OutageFlaky,
				})
				t = t.Add(dur + rng.ExpFloat64()*mtbf)
			}
		}
	}

	if cfg.DegradeMTBFHours > 0 && cfg.DegradeFactor < 1 {
		mtbf := cfg.DegradeMTBFHours * simclock.Hour
		mean := cfg.DegradeMeanHours * simclock.Hour
		for s := 0; s < numServers; s++ {
			t := simclock.Time(rng.ExpFloat64() * mtbf)
			for t < horizon {
				dur := math.Max(cfg.MinOutageSecs, rng.ExpFloat64()*mean)
				sched.Degradations = append(sched.Degradations, Degradation{
					Server: gpu.ServerID(s), At: t, Duration: dur, Factor: cfg.DegradeFactor,
				})
				t = t.Add(dur + rng.ExpFloat64()*mtbf)
			}
		}
	}

	sortOutages(sched.Outages)
	sortDegradations(sched.Degradations)
	return sched, nil
}

func sortOutages(o []Outage) {
	slices.SortFunc(o, func(a, b Outage) int {
		if c := cmp.Compare(a.At, b.At); c != 0 {
			return c
		}
		return cmp.Compare(a.Server, b.Server)
	})
}

func sortDegradations(d []Degradation) {
	slices.SortFunc(d, func(a, b Degradation) int {
		if c := cmp.Compare(a.At, b.At); c != 0 {
			return c
		}
		return cmp.Compare(a.Server, b.Server)
	})
}

// Injector draws the runtime-dependent faults — job crashes and
// migration failures — from one seeded stream. The engine calls it in
// a deterministic order (sorted job IDs, sorted migration lists), so
// with a fixed seed every run consumes the identical sample sequence.
type Injector struct {
	rng        *rand.Rand
	crashProb  float64 // per running job per round
	migFailPro float64
}

// NewInjector builds the injector for one run. quantum converts the
// crash MTBF into a per-round Bernoulli probability:
// p = 1 − exp(−quantum/MTBF).
func NewInjector(cfg Config, quantum simclock.Duration, seed int64) *Injector {
	cfg = cfg.WithDefaults()
	in := &Injector{
		rng:        rand.New(rand.NewSource(seed ^ 0x2b1cd9a85e7f3641)),
		migFailPro: cfg.MigrationFailProb,
	}
	if cfg.JobCrashMTBFHours > 0 && quantum > 0 {
		in.crashProb = 1 - math.Exp(-quantum/(cfg.JobCrashMTBFHours*simclock.Hour))
	}
	return in
}

// CrashNow draws whether one running job crashes this round. No draw
// is consumed when job crashes are disabled.
func (in *Injector) CrashNow() bool {
	if in.crashProb <= 0 {
		return false
	}
	return in.rng.Float64() < in.crashProb
}

// MigrationFails draws whether one migration attempt fails. No draw
// is consumed when migration failures are disabled.
func (in *Injector) MigrationFails() bool {
	if in.migFailPro <= 0 {
		return false
	}
	return in.rng.Float64() < in.migFailPro
}

// Backoff returns the migration-retry delay in rounds after the n-th
// consecutive failed attempt (n ≥ 1): base·2^(n−1), capped.
func Backoff(cfg Config, n int) int {
	cfg = cfg.WithDefaults()
	if n <= 0 {
		return 0
	}
	d := cfg.MigrationBackoffRounds
	for i := 1; i < n; i++ {
		d *= 2
		if d >= cfg.MigrationBackoffCapRounds {
			return cfg.MigrationBackoffCapRounds
		}
	}
	if d > cfg.MigrationBackoffCapRounds {
		d = cfg.MigrationBackoffCapRounds
	}
	return d
}
