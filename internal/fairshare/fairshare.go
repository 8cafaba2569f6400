// Package fairshare implements ticket-based fair-share accounting
// with max–min water-filling, the foundation of Gandiva_fair's
// fairness guarantee: cluster-wide GPU time is divided among active
// users in ticket proportion, and share a user cannot consume (demand
// below entitlement) is redistributed to the others, again in ticket
// proportion (work conservation).
package fairshare

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/gpu"
	"repro/internal/job"
)

// Epsilon below which shares and demands are treated as zero.
const eps = 1e-9

// Compute performs max–min water-filling: it divides capacity GPUs
// among users in proportion to tickets, capping each user at their
// demand and redistributing the surplus until either all capacity is
// assigned or all demand is met. Users absent from tickets get weight
// zero; users with zero demand get zero share.
//
// The returned shares are fractional GPUs (realized over time by
// time-slicing). Invariants: 0 ≤ share[u] ≤ demand[u];
// Σ share = min(capacity, Σ demand).
func Compute(tickets, demand map[job.UserID]float64, capacity float64) map[job.UserID]float64 {
	shares := make(map[job.UserID]float64, len(demand))
	if capacity <= eps {
		return shares
	}
	type user struct {
		id job.UserID
		t  float64
		d  float64
	}
	var active []user
	for id, d := range demand {
		t := tickets[id]
		if d > eps && t > eps {
			active = append(active, user{id, t, d})
		}
	}
	// Deterministic iteration order regardless of map layout.
	sort.Slice(active, func(i, j int) bool { return active[i].id < active[j].id })

	remaining := capacity
	used := 0.0
	for len(active) > 0 && remaining > eps {
		var ticketSum float64
		for _, u := range active {
			ticketSum += u.t
		}
		// Tentatively split remaining capacity by tickets; users whose
		// demand caps below their slice are finalized at demand.
		capped := false
		next := active[:0]
		for _, u := range active {
			slice := remaining * u.t / ticketSum
			if u.d <= slice+eps {
				shares[u.id] += u.d
				used += u.d
				capped = true
			} else {
				next = append(next, u)
			}
		}
		if !capped {
			// No one capped: everyone takes their proportional slice.
			for _, u := range next {
				shares[u.id] += remaining * u.t / ticketSum
			}
			remaining = 0
			break
		}
		// Recompute remaining after finalizing capped users. used is
		// accumulated in the deterministic finalization order — summing
		// the shares map here would make the float rounding (and hence
		// the whole simulation trajectory) depend on map iteration
		// order, which changes between processes.
		remaining = capacity - used
		active = next
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

// SplitByGen apportions a user's total share across GPU generations in
// proportion to cluster capacity — the heterogeneity-blind entitlement
// the trading mechanism then improves upon. capacities maps each
// present generation to its GPU count.
func SplitByGen(total float64, capacities map[gpu.Generation]int) Entitlement {
	var out Entitlement
	sum := totalCapacity(capacities)
	if sum <= eps || total <= eps {
		return out
	}
	for g := range out {
		out[g] = total * float64(capacities[gpu.Generation(g)]) / sum
	}
	return out
}

// totalCapacity is the cluster's GPU count. GPU counts are integers, so
// the sum is exact whatever order the map yields them in.
func totalCapacity(capacities map[gpu.Generation]int) float64 {
	n := 0
	for _, c := range capacities {
		n += c
	}
	return float64(n)
}

// Allocation is the full per-user entitlement map for one round.
// Entitlements are values: maps.Clone copies an Allocation whole.
type Allocation map[job.UserID]Entitlement

// TotalByGen sums entitlements per generation across users. Users are
// visited in sorted order so the float rounding is identical across
// processes regardless of map layout.
func (a Allocation) TotalByGen() Entitlement {
	var out Entitlement
	for _, u := range job.SortedUsers(a) {
		for g, v := range a[u] {
			out[g] += v
		}
	}
	return out
}

// ComputeAllocation runs the full fair-share pipeline for one round:
// water-fill total cluster capacity by tickets and demand, then split
// each user's share across generations by capacity proportion.
//
// demand[u] is the user's total runnable gang width in GPUs.
func ComputeAllocation(tickets, demand map[job.UserID]float64, capacities map[gpu.Generation]int) Allocation {
	shares := Compute(tickets, demand, totalCapacity(capacities))
	alloc := make(Allocation, len(shares))
	for u, s := range shares {
		alloc[u] = SplitByGen(s, capacities)
	}
	return alloc
}

// ComputeAllocationWithDebt is ComputeAllocation with failure
// compensation: users owed debt GPUs (GPU-seconds lost to faults,
// expressed in GPUs for this round) are repaid off the top — their
// repayment is granted before the remaining capacity is water-filled
// over the reduced demands — so surplus redistribution cannot starve a
// user's catch-up. Repayment per round is bounded by
// maxRepayFrac × capacity (≤ 0 disables repayment), and by each
// debtor's own demand: a user cannot consume more than they ask for.
//
// The second return value is the GPUs each debtor was granted beyond
// their no-debt water-fill share — the marginal repayment the caller
// should drain from the debt. Marginal accounting matters: capacity a
// debtor would have received anyway is their ordinary share, not a
// repayment, so counting it would drain debt without restoring the
// user's cumulative position.
func ComputeAllocationWithDebt(tickets, demand map[job.UserID]float64, capacities map[gpu.Generation]int, debt map[job.UserID]float64, maxRepayFrac float64) (Allocation, map[job.UserID]float64) {
	total := totalCapacity(capacities)
	base := Compute(tickets, demand, total)

	// Demand-capped repayment targets, scaled down to the budget if
	// the round's total debt exceeds it. Deterministic order: debtors
	// sorted by ID.
	debtors := make([]job.UserID, 0, len(debt))
	for u := range debt {
		debtors = append(debtors, u)
	}
	sort.Slice(debtors, func(i, j int) bool { return debtors[i] < debtors[j] })
	target := make(map[job.UserID]float64, len(debtors))
	var want float64
	for _, u := range debtors {
		r := math.Min(debt[u], demand[u])
		if r <= eps {
			continue
		}
		target[u] = r
		want += r
	}
	budget := maxRepayFrac * total
	if budget < 0 {
		budget = 0
	}
	if want > budget {
		scale := 0.0
		if want > eps {
			scale = budget / want
		}
		for _, u := range debtors {
			target[u] *= scale
		}
		want = budget
	}

	// Off-the-top grants, then water-fill the rest over the reduced
	// demands and remaining capacity.
	reduced := make(map[job.UserID]float64, len(demand))
	for u, d := range demand {
		reduced[u] = d
	}
	for _, u := range debtors {
		reduced[u] -= target[u]
	}
	rest := Compute(tickets, reduced, total-want)
	shares := make(map[job.UserID]float64, len(rest))
	for u, s := range rest {
		shares[u] = s
	}
	granted := make(map[job.UserID]float64, len(target))
	for _, u := range debtors {
		t := target[u]
		if t <= eps {
			continue
		}
		shares[u] += t
		// Never drain more debt than the grant itself, even if the
		// two water-fills round apart.
		if extra := math.Min(shares[u]-base[u], t); extra > eps {
			granted[u] = extra
		}
	}

	alloc := make(Allocation, len(shares))
	for u, s := range shares {
		alloc[u] = SplitByGen(s, capacities)
	}
	return alloc, granted
}

// Validate checks allocation invariants against capacity and demand:
// per-generation totals within capacity and per-user totals within
// demand (both up to floating-point slack). It returns the first
// violation found.
func (a Allocation) Validate(demand map[job.UserID]float64, capacities map[gpu.Generation]int) error {
	const slack = 1e-6
	for g, tot := range a.TotalByGen() {
		if gen := gpu.Generation(g); tot > float64(capacities[gen])+slack {
			return fmt.Errorf("fairshare: generation %v over-allocated: %v > %d", gen, tot, capacities[gen])
		}
	}
	for u, e := range a {
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
