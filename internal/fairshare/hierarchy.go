package fairshare

import (
	"fmt"

	"repro/internal/job"
)

// Hierarchy describes two-level fairness: organizations hold tickets
// against each other, and each organization's share is divided among
// its users by intra-org weight. This generalizes the paper's flat
// per-user tickets to the org → user structure most clusters bill by.
//
// The flattening is demand-aware: an org's tickets are split only
// among its *active* users each round, so one org cannot lose share
// because some of its members are idle (the same work-conservation
// principle the flat scheme gets from water-filling).
type Hierarchy struct {
	orgs map[string]*Org
}

// Org is one organization's ticket pool and membership.
type Org struct {
	Tickets float64
	// Weights maps member users to their intra-org weight.
	Weights map[job.UserID]float64
}

// NewHierarchy validates and builds a hierarchy. Every user may
// belong to exactly one org.
func NewHierarchy(orgs map[string]*Org) (*Hierarchy, error) {
	if len(orgs) == 0 {
		return nil, fmt.Errorf("fairshare: empty hierarchy")
	}
	seen := make(map[job.UserID]string)
	for name, o := range orgs {
		if o == nil || o.Tickets <= 0 {
			return nil, fmt.Errorf("fairshare: org %q needs positive tickets", name)
		}
		if len(o.Weights) == 0 {
			return nil, fmt.Errorf("fairshare: org %q has no members", name)
		}
		for u, w := range o.Weights {
			if w <= 0 {
				return nil, fmt.Errorf("fairshare: user %s in org %q has non-positive weight", u, name)
			}
			if prev, dup := seen[u]; dup {
				return nil, fmt.Errorf("fairshare: user %s in both %q and %q", u, prev, name)
			}
			seen[u] = name
		}
	}
	return &Hierarchy{orgs: orgs}, nil
}

// Flatten converts the hierarchy into per-user tickets for one round
// given the currently active users: each org's tickets divide among
// its active members by weight; orgs with no active member contribute
// nothing (their share is implicitly redistributed by the outer
// water-filling, which only sees active users' demand). Users not in
// any org get no tickets.
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
