package fairshare

import (
	"cmp"
	"fmt"
	"slices"

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

	// The orgs by position, in name order, and every member, in user-ID
	// order: what FlattenInto walks.
	orgTickets []float64
	members    []member
}

// member is one user of an org: the org's position and the user's
// weight in it.
type member struct {
	user   job.UserID
	org    int
	weight float64
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
	h := &Hierarchy{orgs: orgs}
	names := make([]string, 0, len(orgs))
	for name := range orgs {
		names = append(names, name)
	}
	slices.Sort(names)
	for k, name := range names {
		o := orgs[name]
		h.orgTickets = append(h.orgTickets, o.Tickets)
		for u, w := range o.Weights {
			h.members = append(h.members, member{user: u, org: k, weight: w})
		}
	}
	slices.SortFunc(h.members, func(a, b member) int { return cmp.Compare(a.user, b.user) })
	return h, nil
}

// FlattenInto converts the hierarchy into per-user tickets for one round
// given the currently active users, sorted by ID and distinct: each
// org's tickets divide among its active members by weight, the weights
// summed in user-ID order; orgs with no active member contribute nothing
// (their share is implicitly redistributed by the outer water-filling,
// which only sees active users' demand). Users not in any org get no
// tickets. It writes active[i]'s tickets to the result's element i, in
// the storage of tickets, whose room past the result's length is its
// scratch: hand the result back as the next call's tickets and a call
// allocates nothing.
//
//gflint:noretain
func (h *Hierarchy) FlattenInto(active []job.UserID, tickets []float64) []float64 {
	n, orgs := len(active), len(h.orgTickets)
	buf := slices.Grow(tickets[:0], n+orgs)[:n+orgs]
	out, wsum := buf[:n], buf[n:]
	clear(wsum)
	h.merge(active, func(_ int, m *member) { wsum[m.org] += m.weight })
	clear(out)
	h.merge(active, func(i int, m *member) { out[i] = h.orgTickets[m.org] * m.weight / wsum[m.org] })
	return out
}

// merge calls visit for every active user who is a member, walking
// active and the members together in user-ID order.
func (h *Hierarchy) merge(active []job.UserID, visit func(i int, m *member)) {
	k := 0
	for i, u := range active {
		for k < len(h.members) && h.members[k].user < u {
			k++
		}
		if k < len(h.members) && h.members[k].user == u {
			visit(i, &h.members[k])
		}
	}
}
