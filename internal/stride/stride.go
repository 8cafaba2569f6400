// Package stride implements gang-aware stride scheduling, the
// proportional-share core of Gandiva_fair.
//
// Classic stride scheduling keeps a pass value per client and always
// runs the client with the minimum pass, advancing it by
// stride = constant/tickets per quantum received. Gandiva_fair
// extends this to DLT gangs: a job needs all of its GPUs at once, and
// a round schedules many jobs onto a pool of GPUs simultaneously.
//
// Gang awareness here means two things:
//
//  1. Selection considers jobs in pass order but *skips* a job whose
//     gang does not fit in the remaining capacity, continuing with
//     smaller jobs (no head-of-line blocking, so the pool stays
//     utilized). A skipped job's pass does not advance, so it drifts
//     to the minimum and is eventually scheduled first, when the whole
//     pool is still free — big gangs cannot starve.
//  2. Pass advances by resources actually consumed (gang × seconds)
//     divided by tickets, so a 8-GPU job is charged 8× a 1-GPU job
//     per second and long-run GPU-time converges to ticket proportion
//     regardless of gang sizes.
//
// The ablation mode NaiveBlocking implements strict stride semantics
// (stop filling the pool when the minimum-pass job does not fit),
// which the E4 ablation shows wastes capacity.
package stride

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/job"
)

// Mode selects the selection discipline.
type Mode int

const (
	// GangAware skips jobs that do not fit and keeps filling (the
	// paper's scheduler).
	GangAware Mode = iota
	// NaiveBlocking stops at the first job that does not fit (strict
	// stride order; ablation baseline).
	NaiveBlocking
)

func (m Mode) String() string {
	switch m {
	case GangAware:
		return "gang-aware"
	case NaiveBlocking:
		return "naive-blocking"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Candidate is one runnable job presented to a selection round.
type Candidate struct {
	ID      job.ID
	Gang    int     // GPUs needed, all-or-nothing
	Tickets float64 // share weight for this job (user tickets / user's job count)
}

// Scheduler holds per-job pass state across rounds. It is not safe
// for concurrent use; the simulation core drives it from one
// goroutine.
type Scheduler struct {
	mode Mode
	pass map[job.ID]float64
	keys []ranked //gflint:noretain scratch of rank, overwritten by the next Order or Select
}

// ranked is one candidate's sort key. The pass value is snapshotted
// when the candidate registers, so ordering compares plain fields and
// looks nothing up.
type ranked struct {
	pass  float64
	gang  int
	id    job.ID
	joins bool // unknown until this call: joins at the minimum pass
}

// New returns an empty scheduler in the given mode.
func New(mode Mode) *Scheduler {
	return &Scheduler{mode: mode, pass: make(map[job.ID]float64)}
}

// Mode returns the selection discipline.
func (s *Scheduler) Mode() Mode { return s.mode }

// Pass returns a job's current pass value (0 for unknown jobs).
func (s *Scheduler) Pass(id job.ID) float64 { return s.pass[id] }

// Has reports whether the scheduler tracks the job.
func (s *Scheduler) Has(id job.ID) bool {
	_, ok := s.pass[id]
	return ok
}

// Len returns the number of tracked jobs.
func (s *Scheduler) Len() int { return len(s.pass) }

// Select chooses the jobs to run for one round on a pool of capacity
// identical GPUs. Jobs are considered in increasing pass order (ties:
// larger gang first, then lower ID, so rounds are deterministic).
// Newly seen candidates join at the current minimum pass among the
// candidate set, the standard stride join rule that prevents a new
// job from either monopolizing the pool or being starved.
//
// Select does not advance pass values — call Charge with the
// resources each selected job actually consumed. The returned slice
// lists selected IDs in placement-priority order (big gangs first).
func (s *Scheduler) Select(cands []Candidate, capacity int) []job.ID {
	if capacity <= 0 || len(cands) == 0 {
		return nil
	}
	keys := s.rank(cands)
	n := 0
	remaining := capacity
	for _, k := range keys {
		if remaining == 0 {
			break
		}
		if k.gang > remaining {
			if s.mode == NaiveBlocking {
				break
			}
			continue
		}
		keys[n] = k
		n++
		remaining -= k.gang
	}
	if n == 0 {
		return nil
	}
	selected := keys[:n]
	slices.SortFunc(selected, func(a, b ranked) int {
		if a.gang != b.gang {
			return cmp.Compare(b.gang, a.gang)
		}
		return cmp.Compare(a.id, b.id)
	})
	return rankedIDs(selected)
}

// Order registers candidates (applying the same join rule as Select)
// and returns their IDs in scheduling priority order: increasing
// pass, ties broken by larger gang then lower ID. Callers that need
// to interleave per-candidate constraints (e.g. per-generation
// budgets) iterate this order themselves and Charge what ran.
func (s *Scheduler) Order(cands []Candidate) []job.ID {
	if len(cands) == 0 {
		return nil
	}
	return rankedIDs(s.rank(cands))
}

// rank registers the candidates — unknown ones join at the minimum
// pass among the known — and returns the schedulable ones (positive
// gang and tickets) in priority order. The result is the scheduler's
// scratch, overwritten by the next call.
//
//gflint:noretain
func (s *Scheduler) rank(cands []Candidate) []ranked {
	keys := s.keys[:0]
	minPass, found := 0.0, false
	for _, c := range cands {
		p, ok := s.pass[c.ID]
		if ok && (!found || p < minPass) {
			minPass, found = p, true
		}
		keys = append(keys, ranked{pass: p, gang: c.Gang, id: c.ID, joins: !ok})
	}
	n := 0
	for i, c := range cands {
		k := keys[i]
		if k.joins {
			k.pass = minPass
			s.pass[k.id] = minPass
		}
		if c.Gang > 0 && c.Tickets > 0 {
			keys[n] = k
			n++
		}
	}
	s.keys = keys
	keys = keys[:n]
	slices.SortFunc(keys, func(a, b ranked) int {
		switch {
		case a.pass != b.pass:
			if a.pass < b.pass {
				return -1
			}
			return 1
		case a.gang != b.gang:
			return cmp.Compare(b.gang, a.gang)
		default:
			return cmp.Compare(a.id, b.id)
		}
	})
	return keys
}

func rankedIDs(keys []ranked) []job.ID {
	ids := make([]job.ID, len(keys))
	for i, k := range keys {
		ids[i] = k.id
	}
	return ids
}

// Charge advances a job's pass by the resources it consumed this
// round: gang-GPU-seconds divided by its tickets. Charging an unknown
// job, non-positive tickets, or negative resources panics — those are
// core bugs, not runtime conditions.
func (s *Scheduler) Charge(id job.ID, gpuSeconds, tickets float64) {
	if _, ok := s.pass[id]; !ok {
		panic(fmt.Sprintf("stride: Charge for unknown job %d", id))
	}
	if tickets <= 0 {
		panic(fmt.Sprintf("stride: Charge job %d with tickets %v", id, tickets))
	}
	if gpuSeconds < 0 {
		panic(fmt.Sprintf("stride: Charge job %d with negative resources", id))
	}
	s.pass[id] += gpuSeconds / tickets
}

// Remove forgets a job (finished or cancelled). Removing an unknown
// job is a no-op.
func (s *Scheduler) Remove(id job.ID) { delete(s.pass, id) }
