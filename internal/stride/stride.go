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
//
// Order, Select and Charge are the one implementation, over a caller's
// slice of candidates that carry their passes (core's FairPolicy keeps
// them on its per-job records). Scheduler wraps Select and Charge with
// the passes kept in a map by job ID; only a benchmark probe calls it.
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

// Candidate is one runnable job presented to a selection round: the
// job, its gang and tickets, and its pass. The pass is the caller's to
// keep — Order and Select read it, Charge advances it — and Joins marks
// a job that has none yet: Order and Select give it the minimum pass
// among the candidates that have one (0 if none), the standard stride
// join rule that keeps a new job from either monopolizing the pool or
// being starved, and leave Joins set so the caller knows to store it.
// A Scheduler keeps the passes itself: it ignores the Pass and Joins its
// callers set.
type Candidate struct {
	ID      job.ID
	Gang    int     // GPUs needed, all-or-nothing
	Tickets float64 // share weight for this job (user tickets / user's job count)
	Pass    float64
	Joins   bool
}

// Order applies the join rule to cands and builds in order[:0] the
// positions in cands of the schedulable ones — positive gang and
// tickets — in scheduling priority order: increasing pass, ties broken
// by larger gang, then lower ID. The order is total, so the positions
// cands are offered in change nothing but how much work there is to do.
// Order deals the positions, as offered, first-fit onto at most
// maxPiles piles that each stay in priority order and merges the piles;
// only an offer that needs more piles is sorted. Last round's order,
// after charging, is a few sorted runs interleaved, so offering it
// costs a few comparisons per candidate. Callers that interleave
// per-candidate constraints (e.g. per-generation budgets) walk this
// order themselves and charge what ran. The returned slice keeps room
// for 2·len(cands) positions: hand it back as the next call's order.
//
//gflint:noretain
func Order(cands []Candidate, order []int32) []int32 {
	minPass, found := 0.0, false
	for i := range cands {
		if c := &cands[i]; !c.Joins && (!found || c.Pass < minPass) {
			minPass, found = c.Pass, true
		}
	}
	for i := range cands {
		if c := &cands[i]; c.Joins {
			c.Pass = minPass
		}
	}
	n := len(cands)
	buf := slices.Grow(order[:0], 2*n)[:2*n]
	order, compares, ok := merged(cands, buf[:0], buf[n:])
	if !ok {
		order = buf[:0]
		for i := range cands {
			if c := &cands[i]; c.Gang > 0 && c.Tickets > 0 {
				order = append(order, int32(i))
			}
		}
		slices.SortFunc(order, func(a, b int32) int {
			compares++
			return compare(&cands[a], &cands[b])
		})
	}
	if OnOrder != nil {
		OnOrder(compares)
	}
	return order
}

// maxPiles is how many sorted piles Order deals an offer into before it
// sorts instead.
const maxPiles = 8

// OnOrder, when set, is told how many priority comparisons each Order
// call made. Tests set it to bind a round's ordering work to its jobs;
// programs leave it nil.
var OnOrder func(compares int)

// compare is Order's priority: increasing pass, then larger gang, then
// lower ID.
func compare(a, b *Candidate) int {
	switch {
	case a.Pass != b.Pass:
		if a.Pass < b.Pass {
			return -1
		}
		return 1
	case a.Gang != b.Gang:
		return cmp.Compare(b.Gang, a.Gang)
	default:
		return cmp.Compare(a.ID, b.ID)
	}
}

// merged appends the schedulable positions of cands to out in priority
// order by patience: each is dealt, in the order offered, onto the first
// pile whose last card it sorts after, and the piles' heads are then
// merged. next (len(cands) long) links each pile's cards. Every pile's
// last card sorts after the next pile's, so first fit uses the fewest
// piles any split of the offer into sorted subsequences needs. With more
// than maxPiles it reports false, having appended nothing.
func merged(cands []Candidate, out, next []int32) (order []int32, compares int, ok bool) {
	var head, tail [maxPiles]int32
	piles := 0
	for i := range cands {
		c := &cands[i]
		if c.Gang <= 0 || c.Tickets <= 0 {
			continue
		}
		p := 0
		for ; p < piles; p++ {
			compares++
			if compare(&cands[tail[p]], c) < 0 {
				break
			}
		}
		switch {
		case p < piles:
			next[tail[p]] = int32(i)
		case piles == maxPiles:
			return out, compares, false
		default:
			head[p] = int32(i)
			piles++
		}
		tail[p], next[i] = int32(i), -1
	}
	for piles > 0 {
		best := 0
		for p := 1; p < piles; p++ {
			compares++
			if compare(&cands[head[p]], &cands[head[best]]) < 0 {
				best = p
			}
		}
		at := head[best]
		out = append(out, at)
		if head[best] = next[at]; head[best] < 0 {
			piles--
			head[best] = head[piles]
		}
	}
	return out, compares, true
}

// Select chooses the candidates to run for one round on a pool of
// capacity identical GPUs and builds their positions in cands in
// order[:0]. Candidates are considered in Order's order; in GangAware
// mode one whose gang does not fit the remaining capacity is skipped, in
// NaiveBlocking mode it ends the round. The selection is listed in
// placement-priority order: big gangs first, then lower ID. With no
// capacity or no candidates nothing is selected and nobody joins.
//
// Select does not advance passes — Charge the resources each selected
// job actually consumed.
//
//gflint:noretain
func Select(mode Mode, cands []Candidate, capacity int, order []int32) []int32 {
	if capacity <= 0 || len(cands) == 0 {
		return order[:0]
	}
	order = Order(cands, order)
	n, remaining := 0, capacity
	for _, at := range order {
		if remaining == 0 {
			break
		}
		g := cands[at].Gang
		if g > remaining {
			if mode == NaiveBlocking {
				break
			}
			continue
		}
		order[n] = at
		n++
		remaining -= g
	}
	selected := order[:n]
	slices.SortFunc(selected, func(a, b int32) int {
		ca, cb := &cands[a], &cands[b]
		if ca.Gang != cb.Gang {
			return cmp.Compare(cb.Gang, ca.Gang)
		}
		return cmp.Compare(ca.ID, cb.ID)
	})
	return selected
}

// Charge returns a job's pass advanced by the resources it consumed this
// round: gang-GPU-seconds divided by its tickets. Non-positive tickets
// or negative resources panic — those are core bugs, not runtime
// conditions; id names the job in the message.
func Charge(id job.ID, pass, gpuSeconds, tickets float64) float64 {
	if tickets <= 0 {
		panic(fmt.Sprintf("stride: Charge job %d with tickets %v", id, tickets))
	}
	if gpuSeconds < 0 {
		panic(fmt.Sprintf("stride: Charge job %d with negative resources", id))
	}
	return pass + gpuSeconds/tickets
}

// Scheduler is the kernel with the passes kept for its callers, in a
// map by job ID: Select and Charge over candidates that carry no pass.
// A job stays in the map once it has joined. It is not safe for
// concurrent use.
type Scheduler struct {
	mode  Mode
	pass  map[job.ID]float64
	cands []Candidate //gflint:noretain the last call's candidates with their passes
	order []int32     //gflint:noretain the last call's positions in cands
}

// New returns an empty scheduler in the given mode.
func New(mode Mode) *Scheduler {
	return &Scheduler{mode: mode, pass: make(map[job.ID]float64)}
}

// Select is the package's Select with the scheduler's mode and passes;
// it returns the selected IDs, nil when there are none. A candidate the
// scheduler does not know joins, and keeps the pass it joined at.
func (s *Scheduler) Select(cands []Candidate, capacity int) []job.ID {
	if capacity <= 0 || len(cands) == 0 {
		return nil
	}
	buf := append(s.cands[:0], cands...)
	for i := range buf {
		p, ok := s.pass[buf[i].ID]
		buf[i].Pass, buf[i].Joins = p, !ok
	}
	s.cands = buf
	s.order = Select(s.mode, buf, capacity, s.order)
	for i := range buf {
		if c := &buf[i]; c.Joins {
			s.pass[c.ID] = c.Pass
		}
	}
	if len(s.order) == 0 {
		return nil
	}
	ids := make([]job.ID, len(s.order))
	for i, at := range s.order {
		ids[i] = buf[at].ID
	}
	return ids
}
