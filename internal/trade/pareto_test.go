package trade

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fairshare"
	"repro/internal/gpu"
	"repro/internal/job"
)

// TestTradingIsParetoImproving is the property behind the whole
// mechanism: across random valuations, allocations, demand bounds and
// every price policy, each executed trade must strictly increase both
// participants' throughput-valued allocation, conserve GPUs per
// generation, and leave no user worse off overall.
func TestTradingIsParetoImproving(t *testing.T) {
	rng := rand.New(rand.NewSource(2020))
	policies := []PricePolicy{Geometric, Midpoint, SellerFloor, BuyerCeiling}
	for draw := 0; draw < 100; draw++ {
		policy := policies[draw%len(policies)]
		nUsers := 2 + rng.Intn(5)

		vals := make(Values, nUsers)
		alloc := make(fairshare.Allocation, nUsers)
		demands := make(map[job.UserID]float64, nUsers)
		var users []job.UserID
		for i := 0; i < nUsers; i++ {
			u := job.UserID(fmt.Sprintf("u%d", i))
			users = append(users, u)
			var v [gpu.NumGenerations]float64
			v[gpu.K80] = 1
			for _, g := range []gpu.Generation{gpu.P40, gpu.P100, gpu.V100} {
				if rng.Intn(5) == 0 {
					continue // missing estimate: user sits out this pair
				}
				v[g] = 1 + rng.Float64()*5
			}
			vals[u] = v
			var e fairshare.Entitlement
			for _, g := range gpu.Generations() {
				if rng.Intn(4) == 0 {
					continue // no entitlement on this generation
				}
				e[g] = rng.Float64() * 8
			}
			alloc[u] = e
			// Demand between current total (no headroom) and 2× it.
			demands[u] = e.Total() * (1 + rng.Float64())
		}
		dm := demands
		if draw%3 == 0 {
			dm = nil // all users backlogged: bound disabled
		}

		before := maps.Clone(alloc)
		beforeByGen := alloc.TotalByGen()
		out, log, err := Run(alloc, vals, dm, Config{Policy: policy})
		if err != nil {
			t.Fatalf("draw %d (%s): %v", draw, policy, err)
		}

		// The input allocation is untouched.
		for u, e := range before {
			for g, v := range e {
				if alloc[u][g] != v {
					t.Fatalf("draw %d: input allocation mutated for %s/%v", draw, u, g)
				}
			}
		}

		// Every executed trade is individually Pareto-improving: the
		// price sits strictly between the two speedups, so the buyer
		// values what it got above what it paid and vice versa.
		for i, tr := range log {
			if tr.FastGPUs <= 0 || tr.SlowGPUs <= 0 {
				t.Fatalf("draw %d trade %d: non-positive volume %+v", draw, i, tr)
			}
			if !(tr.SellerSpeedup < tr.Price && tr.Price < tr.BuyerSpeedup) {
				t.Fatalf("draw %d trade %d (%s): price %v outside (%v, %v)",
					draw, i, policy, tr.Price, tr.SellerSpeedup, tr.BuyerSpeedup)
			}
			vb, vs := vals[tr.Buyer], vals[tr.Seller]
			buyerGain := tr.FastGPUs*vb[tr.Fast] - tr.SlowGPUs*vb[tr.Slow]
			sellerGain := tr.SlowGPUs*vs[tr.Slow] - tr.FastGPUs*vs[tr.Fast]
			if buyerGain <= 0 {
				t.Fatalf("draw %d trade %d: buyer %s loses %v", draw, i, tr.Buyer, buyerGain)
			}
			if sellerGain <= 0 {
				t.Fatalf("draw %d trade %d: seller %s loses %v", draw, i, tr.Seller, sellerGain)
			}
		}

		// Conservation: per-generation totals unchanged.
		afterByGen := out.TotalByGen()
		for _, g := range gpu.Generations() {
			if math.Abs(afterByGen[g]-beforeByGen[g]) > 1e-6 {
				t.Fatalf("draw %d: generation %v total %v → %v (not conserved)",
					draw, g, beforeByGen[g], afterByGen[g])
			}
		}

		// No user ends up valuing their allocation less than before;
		// trade participants end up strictly better.
		participated := make(map[job.UserID]bool)
		for _, tr := range log {
			participated[tr.Buyer] = true
			participated[tr.Seller] = true
		}
		for _, u := range users {
			pre := ValueOf(before[u], vals[u])
			post := ValueOf(out[u], vals[u])
			if post < pre-1e-6 {
				t.Fatalf("draw %d (%s): user %s value dropped %v → %v", draw, policy, u, pre, post)
			}
			if participated[u] && post <= pre+1e-9 {
				t.Fatalf("draw %d (%s): participant %s did not strictly gain (%v → %v)",
					draw, policy, u, pre, post)
			}
		}

		// Demand bound respected when enabled.
		if dm != nil {
			for _, u := range users {
				if tot := out[u].Total(); tot > dm[u]+1e-6 {
					t.Fatalf("draw %d: user %s total %v exceeds demand %v", draw, u, tot, dm[u])
				}
			}
		}
	}
}
