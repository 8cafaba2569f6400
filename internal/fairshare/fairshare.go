// Package fairshare implements ticket-based fair-share accounting
// with max–min water-filling, the foundation of Gandiva_fair's
// fairness guarantee: cluster-wide GPU time is divided among active
// users in ticket proportion, and share a user cannot consume (demand
// below entitlement) is redistributed to the others, again in ticket
// proportion (work conservation).
package fairshare

import (
	"math"

	"repro/internal/gpu"
	"repro/internal/job"
)

// Epsilon below which shares and demands are treated as zero.
const eps = 1e-9

// Unreached is the share WaterFill leaves for a user the fill gave
// nothing: no tickets, no demand, or capacity used up before their turn.
// The map forms leave such a user out of their result.
const Unreached = -1.0

// WaterFill performs max–min water-filling over users by position: user
// i holds tickets[i] and demands demand[i] GPUs, and WaterFill writes
// their share to shares[i], or Unreached. It divides capacity GPUs in
// proportion to tickets, caps each user at their demand and
// redistributes the surplus until either all capacity is assigned or
// all demand is met. The three slices are equally long; it allocates
// nothing.
//
// Every sum runs in position order, so the order is part of the result's
// bits: callers keep their users in ID order, the order Compute sorts
// them into. Invariants: 0 ≤ shares[i] ≤ demand[i] for a reached
// user; Σ shares = min(capacity, Σ demand of users holding tickets).
func WaterFill(tickets, demand []float64, capacity float64, shares []float64) {
	for i := range shares {
		shares[i] = Unreached
	}
	if capacity <= eps {
		return
	}
	// A user is pending while they have tickets and demand and the fill
	// has not reached them.
	pending := func(i int) bool { return shares[i] == Unreached && demand[i] > eps && tickets[i] > eps }
	remaining := capacity
	used := 0.0
	for remaining > eps {
		var ticketSum float64
		n := 0
		for i, t := range tickets {
			if pending(i) {
				ticketSum += t
				n++
			}
		}
		if n == 0 {
			return
		}
		// Tentatively split remaining capacity by tickets; users whose
		// demand caps below their slice are finalized at demand.
		capped := false
		for i, t := range tickets {
			if pending(i) && demand[i] <= remaining*t/ticketSum+eps {
				shares[i] = demand[i]
				used += demand[i]
				capped = true
			}
		}
		if !capped {
			// No one capped: everyone takes their proportional slice.
			for i, t := range tickets {
				if pending(i) {
					shares[i] = remaining * t / ticketSum
				}
			}
			return
		}
		// used is accumulated in finalization order, which is position
		// order: summing the shares in any other order would round
		// differently, and the whole simulation trajectory with it.
		remaining = capacity - used
	}
}

// Compute is WaterFill over maps: it returns the share of every user of
// demand the fill reached. Users absent from tickets get weight zero.
func Compute(tickets, demand map[job.UserID]float64, capacity float64) map[job.UserID]float64 {
	users := job.SortedUsers(demand)
	n := len(users)
	buf := make([]float64, 3*n)
	t, d, sh := buf[:n], buf[n:2*n], buf[2*n:]
	for i, u := range users {
		t[i], d[i] = tickets[u], demand[u]
	}
	WaterFill(t, d, capacity, sh)
	shares := make(map[job.UserID]float64, n)
	for i, u := range users {
		if sh[i] != Unreached {
			shares[u] = sh[i]
		}
	}
	return shares
}

// Entitlement is a user's per-generation fair share for one scheduling
// round, in (fractional) GPUs, indexed by gpu.Generation. A generation
// the cluster lacks holds zero.
type Entitlement [gpu.NumGenerations]float64

// Total sums the entitlement across generations, oldest first.
func (e Entitlement) Total() float64 {
	var s float64
	for _, v := range e {
		s += v
	}
	return s
}

// Capacity is a cluster's GPU count per generation, indexed like an
// Entitlement, and the total: what splitting a share reads, converted
// once a round instead of once a user.
type Capacity struct {
	gpus  [gpu.NumGenerations]float64
	total float64
}

// CapacityOf converts a generation → GPU count map. GPU counts are
// integers, so the total is exact whatever order the map yields them in.
func CapacityOf(capacities map[gpu.Generation]int) Capacity {
	var c Capacity
	n := 0
	for g, k := range capacities {
		n += k
		if g.Valid() {
			c.gpus[g] = float64(k)
		}
	}
	c.total = float64(n)
	return c
}

// Total is the cluster's GPU count.
func (c *Capacity) Total() float64 { return c.total }

// Split apportions a user's total share across GPU generations in
// proportion to capacity — the heterogeneity-blind entitlement the
// trading mechanism then improves upon.
func (c *Capacity) Split(total float64) Entitlement {
	var out Entitlement
	if c.total <= eps || total <= eps {
		return out
	}
	for g := range out {
		out[g] = total * c.gpus[g] / c.total
	}
	return out
}

// Allocation is the full per-user entitlement map for one round.
// Entitlements are values: maps.Clone copies an Allocation whole.
type Allocation map[job.UserID]Entitlement

// TotalByGen sums entitlements per generation across users. Users are
// visited in sorted order so the float rounding is identical across
// processes regardless of map layout. It is test support: the fairshare
// and trade tests check capacity with it, and no production code calls
// it.
func (a Allocation) TotalByGen() Entitlement {
	var out Entitlement
	for _, u := range job.SortedUsers(a) {
		for g, v := range a[u] {
			out[g] += v
		}
	}
	return out
}

// ComputeAllocation runs the full fair-share pipeline for one round over
// maps: water-fill total cluster capacity by tickets and demand, then
// split each user's share across generations by capacity proportion.
//
// demand[u] is the user's total runnable gang width in GPUs.
func ComputeAllocation(tickets, demand map[job.UserID]float64, capacities map[gpu.Generation]int) Allocation {
	c := CapacityOf(capacities)
	shares := Compute(tickets, demand, c.Total())
	alloc := make(Allocation, len(shares))
	for u, s := range shares {
		alloc[u] = c.Split(s)
	}
	return alloc
}

// WaterFillWithDebt is WaterFill with failure compensation: users owed
// debt[i] GPUs (GPU-seconds lost to faults, expressed in GPUs for this
// round) are repaid off the top — their repayment is granted before the
// remaining capacity is water-filled over the reduced demands — so
// surplus redistribution cannot starve a user's catch-up. Repayment per
// round is bounded by maxRepayFrac × capacity (≤ 0 disables repayment),
// and by each debtor's own demand: a user cannot consume more than they
// ask for. shares is written as WaterFill writes it, a debtor's share
// including their repayment. target and reduced are the caller's
// scratch, overwritten: each debtor's repayment and demand less it. The
// six slices are equally long.
//
// What the grant adds to a debtor's share is not reported: the engine
// drains debt by the catch-up that materializes, not by the grant.
func WaterFillWithDebt(tickets, demand, debt []float64, capacity, maxRepayFrac float64, target, reduced, shares []float64) {
	clear(target)

	// Demand-capped repayment targets, scaled down to the budget if the
	// round's total debt exceeds it.
	var want float64
	for i, d := range debt {
		r := math.Min(d, demand[i])
		if r <= eps {
			continue
		}
		target[i] = r
		want += r
	}
	budget := maxRepayFrac * capacity
	if budget < 0 {
		budget = 0
	}
	if want > budget {
		scale := 0.0
		if want > eps {
			scale = budget / want
		}
		for i := range target {
			target[i] *= scale
		}
		want = budget
	}

	// Off-the-top grants, then water-fill the rest over the reduced
	// demands and remaining capacity.
	for i, d := range demand {
		reduced[i] = d - target[i]
	}
	WaterFill(tickets, reduced, capacity-want, shares)
	for i, t := range target {
		if t <= eps {
			continue
		}
		if shares[i] == Unreached {
			shares[i] = 0
		}
		shares[i] += t
	}
}

// PerJobTickets splits a user's tickets equally among their n runnable
// jobs, so a user cannot increase their share by splitting work into
// more jobs (the paper's two-level ticket hierarchy). A user without
// tickets or jobs yields zero.
func PerJobTickets(tickets float64, n int) float64 {
	if n <= 0 || tickets <= eps {
		return 0
	}
	return tickets / float64(n)
}

// JobTickets is PerJobTickets over maps: jobsPerUser maps user → number
// of runnable jobs, and users who yield zero are left out. Like
// AllocationSolver it has no production caller, only cmd/gfperf's
// stride probe.
func JobTickets(tickets map[job.UserID]float64, jobsPerUser map[job.UserID]int) map[job.UserID]float64 {
	out := make(map[job.UserID]float64, len(jobsPerUser))
	for u, n := range jobsPerUser {
		if t := PerJobTickets(tickets[u], n); t > 0 {
			out[u] = t
		}
	}
	return out
}

// FairFractions returns each active user's ideal share fraction:
// t_u / Σ t_v over the active set. Metrics use this as the fairness
// baseline. Users with nonpositive tickets get fraction zero.
func FairFractions(tickets map[job.UserID]float64, active []job.UserID) map[job.UserID]float64 {
	out := make(map[job.UserID]float64, len(active))
	var sum float64
	for _, u := range active {
		if t := tickets[u]; t > eps {
			sum += t
		}
	}
	if sum <= eps {
		return out
	}
	for _, u := range active {
		if t := tickets[u]; t > eps {
			out[u] = t / sum
		} else {
			out[u] = 0
		}
	}
	return out
}

// EqualTickets builds a ticket map giving every listed user weight 1.
func EqualTickets(users ...job.UserID) map[job.UserID]float64 {
	m := make(map[job.UserID]float64, len(users))
	for _, u := range users {
		m[u] = 1
	}
	return m
}

// MaxShareError returns the largest absolute deviation between
// observed share fractions and ideal fractions — a scalar fairness
// score used across the experiments (0 = perfectly fair).
func MaxShareError(observed, ideal map[job.UserID]float64) float64 {
	var worst float64
	for u, want := range ideal {
		worst = math.Max(worst, math.Abs(observed[u]-want))
	}
	return worst
}
