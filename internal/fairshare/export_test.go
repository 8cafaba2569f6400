package fairshare

import (
	"fmt"
	"slices"

	"repro/internal/gpu"
	"repro/internal/job"
)

// Test-side helpers: checks and accessors only the tests read.

// Validate checks allocation invariants against capacity and demand:
// per-generation totals within capacity and per-user totals within
// demand (both up to floating-point slack). It returns the first
// violation found, generations oldest first, then users in ID order.
func (a Allocation) Validate(demand map[job.UserID]float64, capacities map[gpu.Generation]int) error {
	const slack = 1e-6
	for g, tot := range a.TotalByGen() {
		if gen := gpu.Generation(g); tot > float64(capacities[gen])+slack {
			return fmt.Errorf("fairshare: generation %v over-allocated: %v > %d", gen, tot, capacities[gen])
		}
	}
	for _, u := range job.SortedUsers(a) {
		e := a[u]
		if t := e.Total(); t > demand[u]+slack {
			return fmt.Errorf("fairshare: user %s over demand: %v > %v", u, t, demand[u])
		}
		for g, v := range e {
			if v < -slack {
				return fmt.Errorf("fairshare: user %s negative share on %v: %v", u, gpu.Generation(g), v)
			}
		}
	}
	return nil
}

// MustNewHierarchy is NewHierarchy but panics on invalid input.
func MustNewHierarchy(orgs map[string]*Org) *Hierarchy {
	h, err := NewHierarchy(orgs)
	if err != nil {
		panic(err)
	}
	return h
}

// Users returns all member users, sorted.
func (h *Hierarchy) Users() []job.UserID {
	var out []job.UserID
	for _, o := range h.orgs {
		for u := range o.Weights {
			out = append(out, u)
		}
	}
	slices.Sort(out)
	return out
}
