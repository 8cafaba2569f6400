package fairshare

import (
	"repro/internal/gpu"
	"repro/internal/job"
)

// AllocationSolver memoizes ComputeAllocation for policies that
// rebuild their inputs from scratch each round: Solve diffs the given
// tickets/demand/capacities against the previous round's and returns
// the cached Allocation when nothing changed. The returned Allocation
// is shared storage: callers must not mutate it.
//
// No production code calls it: only cmd/gfperf's
// fairshare.alloc_resolve_us_per_call probe holds it, until the next
// benchmark-only PR drops both (ROADMAP item 6c).
type AllocationSolver struct {
	tickets map[job.UserID]float64
	demand  map[job.UserID]float64
	caps    map[gpu.Generation]int

	alloc Allocation //gflint:noretain solver cache, rewritten on re-solve
	valid bool
}

// NewAllocationSolver returns an empty solver.
func NewAllocationSolver() *AllocationSolver {
	return &AllocationSolver{
		tickets: make(map[job.UserID]float64),
		demand:  make(map[job.UserID]float64),
		caps:    make(map[gpu.Generation]int),
	}
}

// Solve returns ComputeAllocation(tickets, demand, capacities),
// re-solving only when an input differs from the previous call.
//
//gflint:noretain
func (s *AllocationSolver) Solve(tickets, demand map[job.UserID]float64, capacities map[gpu.Generation]int) Allocation {
	if s.valid &&
		floatMapEqual(s.tickets, tickets) &&
		floatMapEqual(s.demand, demand) &&
		intMapEqual(s.caps, capacities) {
		return s.alloc
	}
	s.alloc = ComputeAllocation(tickets, demand, capacities)
	s.valid = true
	s.tickets = copyFloatMap(s.tickets, tickets)
	s.demand = copyFloatMap(s.demand, demand)
	s.caps = copyIntMap(s.caps, capacities)
	return s.alloc
}

func floatMapEqual[K comparable](a, b map[K]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

func intMapEqual[K comparable](a, b map[K]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

func copyFloatMap[K comparable](dst, src map[K]float64) map[K]float64 {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
	return dst
}

func copyIntMap[K comparable](dst, src map[K]int) map[K]int {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
	return dst
}
