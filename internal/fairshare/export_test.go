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

// Flatten is the map form FlattenInto replaced, kept as the oracle its
// bits are held to: for any order of active users, a map of the tickets
// of those in an org. Each org's active weights are summed in user-ID
// order.
func (h *Hierarchy) Flatten(active []job.UserID) map[job.UserID]float64 {
	activeSet := make(map[job.UserID]bool, len(active))
	for _, u := range active {
		activeSet[u] = true
	}
	out := make(map[job.UserID]float64)
	for _, o := range h.orgs {
		var wsum float64
		for _, u := range job.SortedUsers(o.Weights) {
			if activeSet[u] {
				wsum += o.Weights[u]
			}
		}
		if wsum <= 0 {
			continue
		}
		for u, w := range o.Weights {
			if activeSet[u] {
				out[u] = o.Tickets * w / wsum
			}
		}
	}
	return out
}
