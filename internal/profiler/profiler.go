// Package profiler estimates each job's throughput on each GPU
// generation from noisy observations, the way Gandiva_fair profiles
// marginal utility: DLT jobs run the same minibatch millions of
// times, so a short run on a generation yields a low-cost, slightly
// noisy rate measurement that an EWMA quickly sharpens.
//
// The simulation knows the true rates (job.Perf); the profiler's role
// is to model the *measurement* process so that the trading mechanism
// consumes estimates, not oracle truth — estimation error is part of
// what the paper's design tolerates.
package profiler

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/gpu"
	"repro/internal/job"
)

// Profiler accumulates per-job, per-generation rate estimates. Not
// safe for concurrent use (single simulation goroutine).
//
// A job's estimates are a record in a dense slice at the job's slot in
// the engine's table of live jobs (job.Job.Slot), so observing and
// reading a job hashes nothing; a slot's next job starts a record of its
// own there. Rate and Samples by job ID go through an index over the
// same records, built when first asked for after a change.
type Profiler struct {
	noiseStd float64 // relative std-dev of one measurement
	rng      *rand.Rand
	recs     []Estimates           // by slot
	byID     map[job.ID]*Estimates // Rate and Samples' index; nil when stale
}

// Estimates is one job's profile: a rate estimate and the observation
// count behind it, per generation.
type Estimates struct {
	job     *job.Job                    // whose; nil while the slot's record is free
	rate    [gpu.NumGenerations]float64 // per-GPU minibatches/sec estimates
	samples [gpu.NumGenerations]int
}

// Rate returns the estimated per-GPU rate on g and whether any
// observation exists. A nil Estimates has none.
func (e *Estimates) Rate(g gpu.Generation) (float64, bool) {
	if e == nil || !g.Valid() || e.samples[g] == 0 {
		return 0, false
	}
	return e.rate[g], true
}

// Samples returns the observation count on g.
func (e *Estimates) Samples(g gpu.Generation) int {
	if e == nil || !g.Valid() {
		return 0
	}
	return e.samples[g]
}

// alpha is the EWMA weight of the newest sample.
const alpha = 0.25

// New returns a profiler. noiseStd is the relative standard deviation
// of a single rate measurement (the paper's minibatch timings are
// stable, so a few percent is realistic).
func New(noiseStd float64, seed int64) (*Profiler, error) {
	if err := CheckParams(noiseStd); err != nil {
		return nil, err
	}
	return &Profiler{
		noiseStd: noiseStd,
		rng:      rand.New(rand.NewSource(seed)),
	}, nil
}

// CheckParams is New's parameter rule: noiseStd finite and
// non-negative. NaN fails.
func CheckParams(noiseStd float64) error {
	if !(noiseStd >= 0 && !math.IsInf(noiseStd, 1)) {
		return fmt.Errorf("profiler: noiseStd %v not finite and non-negative", noiseStd)
	}
	return nil
}

// MustNew is New but panics on bad parameters; for fixtures and
// constant parameters.
func MustNew(noiseStd float64, seed int64) *Profiler {
	p, err := New(noiseStd, seed)
	if err != nil {
		panic(err)
	}
	return p
}

// Estimates returns j's estimates, nil before its first observation. The
// pointer is the profiler's own record: read it before the next
// observation of a job the profiler has not seen, which may move it.
//
//gflint:noretain
func (p *Profiler) Estimates(j *job.Job) *Estimates {
	if at := j.Slot(); at < len(p.recs) && p.recs[at].job == j {
		return &p.recs[at]
	}
	return nil
}

// record is Estimates, making the record at the job's slot at its first
// observation.
//
//gflint:noretain
func (p *Profiler) record(j *job.Job) *Estimates {
	if e := p.Estimates(j); e != nil {
		return e
	}
	at := j.Slot()
	if at >= len(p.recs) { // recs never shrinks, so what it grows into is zero
		p.recs = slices.Grow(p.recs, at+1-len(p.recs))[:at+1]
	}
	p.recs[at] = Estimates{job: j}
	p.byID = nil
	return &p.recs[at]
}

// Observe records one noisy measurement of j's per-GPU rate on
// generation g (the job just ran a quantum there). Observing a
// generation the job does not fit panics — the placement layer must
// never run it there.
func (p *Profiler) Observe(j *job.Job, g gpu.Generation) {
	if !j.Perf.FitsOn(g) {
		panic(fmt.Sprintf("profiler: observe job %d on unusable generation %v", j.ID, g))
	}
	truth := j.Perf.RatePerGPU[g]
	measured := truth * (1 + p.noiseStd*p.rng.NormFloat64())
	if measured <= 0 {
		measured = truth * 0.01 // measurement noise cannot produce a nonpositive rate
	}
	e := p.record(j)
	if e.samples[g] == 0 {
		e.rate[g] = measured
	} else {
		e.rate[g] = (1-alpha)*e.rate[g] + alpha*measured
	}
	e.samples[g]++
}

// ProbeAll takes one measurement on every generation the job fits,
// modeling the paper's initial micro-profiling pass (a few
// minibatches on each GPU type when the job first runs).
func (p *Profiler) ProbeAll(j *job.Job) {
	for _, g := range gpu.Generations() {
		if j.Perf.FitsOn(g) {
			p.Observe(j, g)
		}
	}
}

// Measure is what one quantum on generation g tells the profiler: the
// job's first quantum there is its micro-profiling pass (ProbeAll),
// every later one a single sample of g (Observe).
func (p *Profiler) Measure(j *job.Job, g gpu.Generation) {
	if p.Estimates(j).Samples(g) == 0 {
		p.ProbeAll(j)
	} else {
		p.Observe(j, g)
	}
}

// index returns the job-ID index over the records, building it when a
// record was made or removed since the last call.
func (p *Profiler) index() map[job.ID]*Estimates {
	if p.byID == nil {
		p.byID = make(map[job.ID]*Estimates, len(p.recs))
		for i := range p.recs {
			if e := &p.recs[i]; e.job != nil {
				p.byID[e.job.ID] = e
			}
		}
	}
	return p.byID
}

// Rate returns the estimated per-GPU rate of job id on g and whether
// any observation exists.
func (p *Profiler) Rate(id job.ID, g gpu.Generation) (float64, bool) {
	return p.index()[id].Rate(g)
}

// Samples returns the observation count for (id, g).
func (p *Profiler) Samples(id job.ID, g gpu.Generation) int {
	return p.index()[id].Samples(g)
}

// Remove forgets a finished job, freeing its slot's record.
func (p *Profiler) Remove(j *job.Job) {
	if e := p.Estimates(j); e != nil {
		*e = Estimates{}
		p.byID = nil
	}
}
