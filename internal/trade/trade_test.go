package trade

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/fairshare"
	"repro/internal/gpu"
	"repro/internal/job"
)

// ValueOf computes a user's throughput-valued allocation Σ_g E(g)·v(g)
// under their own value vector — the quantity trading must strictly
// increase for both parties.
func ValueOf(e fairshare.Entitlement, v [gpu.NumGenerations]float64) float64 {
	var sum float64
	for g := range e {
		sum += e[g] * v[g]
	}
	return sum
}

// twoUserFixture: blind fair share on 40 K80 + 8 V100, equal split.
// fastUser values V100 at 4× K80; slowUser at 1.2×.
func twoUserFixture() (fairshare.Allocation, Values) {
	alloc := fairshare.Allocation{
		"fastUser": {gpu.K80: 20, gpu.V100: 4},
		"slowUser": {gpu.K80: 20, gpu.V100: 4},
	}
	vals := Values{
		"fastUser": valueVec(1, 0, 0, 4.0),
		"slowUser": valueVec(1, 0, 0, 1.2),
	}
	return alloc, vals
}

func valueVec(k80, p40, p100, v100 float64) [gpu.NumGenerations]float64 {
	var v [gpu.NumGenerations]float64
	v[gpu.K80] = k80
	v[gpu.P40] = p40
	v[gpu.P100] = p100
	v[gpu.V100] = v100
	return v
}

func genTotals(a fairshare.Allocation) fairshare.Entitlement {
	return a.TotalByGen()
}

func TestTwoUserWinWin(t *testing.T) {
	alloc, vals := twoUserFixture()
	out, log, err := Run(alloc, vals, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(log) == 0 {
		t.Fatal("no trades executed on a 4× vs 1.2× gap")
	}
	// Direction: fastUser gains V100, loses K80; slowUser the reverse.
	if out["fastUser"][gpu.V100] <= alloc["fastUser"][gpu.V100] {
		t.Errorf("buyer V100 %v, want > %v", out["fastUser"][gpu.V100], alloc["fastUser"][gpu.V100])
	}
	if out["slowUser"][gpu.K80] <= alloc["slowUser"][gpu.K80] {
		t.Errorf("seller K80 %v, want > %v", out["slowUser"][gpu.K80], alloc["slowUser"][gpu.K80])
	}
	// Pareto: both users' self-valued allocation strictly increases.
	for u, v := range vals {
		before := ValueOf(alloc[u], v)
		after := ValueOf(out[u], v)
		if after <= before+1e-9 {
			t.Errorf("user %s value %v → %v, want strict gain", u, before, after)
		}
	}
	// Conservation per generation.
	before, after := genTotals(alloc), genTotals(out)
	for g, b := range before {
		if math.Abs(after[g]-b) > 1e-6 {
			t.Errorf("generation %v total %v → %v (not conserved)", g, b, after[g])
		}
	}
	// Seller fully sold its V100 entitlement (buyer had ample K80).
	if out["slowUser"][gpu.V100] > 1e-6 {
		t.Errorf("seller still holds %v V100", out["slowUser"][gpu.V100])
	}
	// Input must not be mutated.
	if alloc["fastUser"][gpu.V100] != 4 {
		t.Error("Run mutated its input allocation")
	}
}

func TestNoTradeWithinMargin(t *testing.T) {
	alloc := fairshare.Allocation{
		"a": {gpu.K80: 10, gpu.V100: 2},
		"b": {gpu.K80: 10, gpu.V100: 2},
	}
	vals := Values{
		"a": valueVec(1, 0, 0, 2.0),
		"b": valueVec(1, 0, 0, 1.95), // ratio 1.026 < minRatio 1.10
	}
	out, log, err := Run(alloc, vals, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != 0 {
		t.Fatalf("traded %d times inside the noise margin", len(log))
	}
	for u := range alloc {
		for g, v := range alloc[u] {
			if out[u][g] != v {
				t.Errorf("allocation changed without trades: %s %v", u, g)
			}
		}
	}
}

func TestUnprofiledUsersUntouched(t *testing.T) {
	alloc := fairshare.Allocation{
		"a": {gpu.K80: 10, gpu.V100: 2},
		"b": {gpu.K80: 10, gpu.V100: 2},
		"c": {gpu.K80: 10, gpu.V100: 2}, // no profile
	}
	vals := Values{
		"a": valueVec(1, 0, 0, 4.0),
		"b": valueVec(1, 0, 0, 1.2),
	}
	out, log, err := Run(alloc, vals, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(log) == 0 {
		t.Fatal("a and b should trade")
	}
	for g, v := range alloc["c"] {
		if out["c"][g] != v {
			t.Errorf("unprofiled user c changed on %v: %v → %v", g, v, out["c"][g])
		}
	}
}

func TestSingleUserNoTrade(t *testing.T) {
	alloc := fairshare.Allocation{"solo": {gpu.K80: 10, gpu.V100: 5}}
	vals := Values{"solo": valueVec(1, 0, 0, 5)}
	out, log, err := Run(alloc, vals, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != 0 {
		t.Fatalf("a lone user traded with itself: %+v", log)
	}
	if out["solo"][gpu.V100] != 5 {
		t.Error("solo allocation changed")
	}
}

func TestPricePolicies(t *testing.T) {
	for _, pol := range []PricePolicy{Geometric, Midpoint, SellerFloor, BuyerCeiling} {
		alloc, vals := twoUserFixture()
		out, log, err := Run(alloc, vals, nil, Config{Policy: pol})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if len(log) == 0 {
			t.Fatalf("%v: no trades", pol)
		}
		for _, tr := range log {
			if tr.Price <= tr.SellerSpeedup || tr.Price >= tr.BuyerSpeedup {
				t.Errorf("%v: price %v outside (%v, %v)", pol, tr.Price, tr.SellerSpeedup, tr.BuyerSpeedup)
			}
		}
		// Pareto under every policy.
		for u, v := range vals {
			if ValueOf(out[u], v) <= ValueOf(alloc[u], v)+1e-9 {
				t.Errorf("%v: user %s did not gain", pol, u)
			}
		}
		if pol.String() == "" {
			t.Errorf("empty String for %d", int(pol))
		}
	}
	if PricePolicy(99).String() == "" {
		t.Error("unknown policy String empty")
	}
}

func TestPriceOrdering(t *testing.T) {
	// SellerFloor should hand the buyer a better (lower) price than
	// BuyerCeiling.
	sb, ss := 4.0, 1.2
	pf := price(SellerFloor, sb, ss)
	pc := price(BuyerCeiling, sb, ss)
	pg := price(Geometric, sb, ss)
	pm := price(Midpoint, sb, ss)
	if !(pf < pg && pg < pm && pm < pc) {
		t.Errorf("price ordering broken: floor %v geo %v mid %v ceil %v", pf, pg, pm, pc)
	}
	for _, p := range []float64{pf, pc, pg, pm} {
		if p <= ss || p >= sb {
			t.Errorf("price %v outside (%v,%v)", p, ss, sb)
		}
	}
}

func TestMultiGenerationCascade(t *testing.T) {
	// Three users, three generations with data; trades should flow
	// V100→compute user, K80→memory-bound user.
	alloc := fairshare.Allocation{
		"mem":   {gpu.K80: 16, gpu.P100: 8, gpu.V100: 4},
		"mid":   {gpu.K80: 16, gpu.P100: 8, gpu.V100: 4},
		"dense": {gpu.K80: 16, gpu.P100: 8, gpu.V100: 4},
	}
	vals := Values{
		"mem":   valueVec(1, 0, 1.1, 1.2),
		"mid":   valueVec(1, 0, 1.8, 2.5),
		"dense": valueVec(1, 0, 2.8, 5.0),
	}
	out, log, err := Run(alloc, vals, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(log) == 0 {
		t.Fatal("no trades")
	}
	for u, v := range vals {
		if ValueOf(out[u], v) < ValueOf(alloc[u], v)-1e-9 {
			t.Errorf("user %s lost value", u)
		}
	}
	if out["dense"][gpu.V100] <= alloc["dense"][gpu.V100] {
		t.Error("dense user did not gain V100s")
	}
	if out["mem"][gpu.K80] <= alloc["mem"][gpu.K80] {
		t.Error("memory-bound user did not gain K80s")
	}
	before, after := genTotals(alloc), genTotals(out)
	for g, b := range before {
		if math.Abs(after[g]-b) > 1e-6 {
			t.Errorf("generation %v not conserved: %v → %v", g, b, after[g])
		}
	}
}

func TestDemandBoundStopsPhantomGains(t *testing.T) {
	// The seller's demand equals its current total: it cannot use a
	// single extra slow GPU, so no trade may execute (any trade would
	// inflate its entitlement beyond usable demand and its realized
	// throughput would drop).
	alloc, vals := twoUserFixture() // each holds 24 total
	demands := map[job.UserID]float64{"fastUser": 24, "slowUser": 24}
	out, log, err := Run(alloc, vals, demands, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != 0 {
		t.Fatalf("traded despite zero seller slack: %+v", log)
	}
	for u := range alloc {
		if out[u].Total() != alloc[u].Total() {
			t.Errorf("user %s total changed", u)
		}
	}
	// With slack, trades run but the seller's total never exceeds its
	// demand.
	demands["slowUser"] = 26 // 2 GPUs of spare demand
	out, log, err = Run(alloc, vals, demands, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(log) == 0 {
		t.Fatal("no trades despite seller slack")
	}
	if tot := out["slowUser"].Total(); tot > 26+1e-6 {
		t.Errorf("seller total %v exceeds demand 26", tot)
	}
}

// Property: trading reaches a fixpoint — rerunning on the output with
// the same values executes no further trades (no residual arbitrage
// above the margin that the algorithm could still exploit).
func TestPropertyFixpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	users := []job.UserID{"a", "b", "c", "d"}
	for trial := 0; trial < 100; trial++ {
		alloc := fairshare.Allocation{}
		vals := Values{}
		for _, u := range users {
			alloc[u] = fairshare.Entitlement{
				gpu.K80:  float64(rng.Intn(15)),
				gpu.V100: float64(rng.Intn(8)),
			}
			var v [gpu.NumGenerations]float64
			v[gpu.K80] = 1
			v[gpu.V100] = 1 + rng.Float64()*4
			vals[u] = v
		}
		out, _, err := Run(alloc, vals, nil, Config{})
		if err != nil {
			t.Fatal(err)
		}
		_, again, err := Run(out, vals, nil, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if len(again) != 0 {
			t.Fatalf("trial %d: %d residual trades after fixpoint: %+v", trial, len(again), again)
		}
	}
}

func TestDeterminism(t *testing.T) {
	alloc, vals := twoUserFixture()
	_, log1, _ := Run(alloc, vals, nil, Config{})
	_, log2, _ := Run(alloc, vals, nil, Config{})
	if len(log1) != len(log2) {
		t.Fatalf("trade logs differ in length: %d vs %d", len(log1), len(log2))
	}
	for i := range log1 {
		if log1[i] != log2[i] {
			t.Fatalf("trade %d differs: %+v vs %+v", i, log1[i], log2[i])
		}
	}
}

// Property: over random allocations and values, trading conserves
// per-generation totals, never drives entitlements negative, and
// never reduces any user's self-valued allocation.
func TestPropertyParetoAndConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	users := []job.UserID{"a", "b", "c", "d", "e"}
	for trial := 0; trial < 200; trial++ {
		alloc := fairshare.Allocation{}
		vals := Values{}
		n := 2 + rng.Intn(4)
		for i := 0; i < n; i++ {
			u := users[i]
			e := fairshare.Entitlement{}
			for _, g := range gpu.Generations() {
				if rng.Intn(3) > 0 {
					e[g] = float64(rng.Intn(20))
				}
			}
			alloc[u] = e
			if rng.Intn(4) > 0 { // some users unprofiled
				v := [gpu.NumGenerations]float64{}
				v[gpu.K80] = 1
				v[gpu.P40] = 1 + rng.Float64()*2
				v[gpu.P100] = 1 + rng.Float64()*3
				v[gpu.V100] = 1 + rng.Float64()*5
				vals[u] = v
			}
		}
		out, log, err := Run(alloc, vals, nil, Config{})
		if err != nil {
			t.Fatal(err)
		}
		before, after := genTotals(alloc), genTotals(out)
		for _, g := range gpu.Generations() {
			if math.Abs(after[g]-before[g]) > 1e-6 {
				t.Fatalf("trial %d: gen %v not conserved: %v → %v (%d trades)",
					trial, g, before[g], after[g], len(log))
			}
		}
		for u, e := range out {
			for g, v := range e {
				if v < -1e-9 {
					t.Fatalf("trial %d: user %s negative %v on %v", trial, u, v, g)
				}
			}
			if vv, ok := vals[u]; ok {
				if ValueOf(e, vv) < ValueOf(alloc[u], vv)-1e-6 {
					t.Fatalf("trial %d: user %s lost value", trial, u)
				}
			} else {
				for g, v := range alloc[u] {
					if e[g] != v {
						t.Fatalf("trial %d: unprofiled user %s was traded", trial, u)
					}
				}
			}
		}
	}
}

// pickPairSorted is the specification scan's one pass must match:
// every candidate collected, each side fully sorted (speedup, then
// user ID), the heads taken, the runners-up when the heads are one
// user. how names the branch taken; "none" means no pair.
func pickPairSorted(parties []Party, fast, slow gpu.Generation) (b, s cand, how string) {
	var buyers, sellers []cand
	for i := range parties {
		sp, ok := parties[i].speedupOn(fast, slow)
		if !ok {
			continue
		}
		if parties[i].Share[slow] > eps {
			buyers = append(buyers, cand{i, sp})
		}
		if parties[i].Share[fast] > eps {
			sellers = append(sellers, cand{i, sp})
		}
	}
	if len(buyers) == 0 || len(sellers) == 0 {
		return b, s, "none"
	}
	user := func(c cand) job.UserID { return parties[c.at].User }
	sort.Slice(buyers, func(i, j int) bool {
		if buyers[i].s != buyers[j].s {
			return buyers[i].s > buyers[j].s
		}
		return user(buyers[i]) < user(buyers[j])
	})
	sort.Slice(sellers, func(i, j int) bool {
		if sellers[i].s != sellers[j].s {
			return sellers[i].s < sellers[j].s
		}
		return user(sellers[i]) < user(sellers[j])
	})
	b, s = buyers[0], sellers[0]
	if b.at != s.at {
		return b, s, "heads"
	}
	if len(buyers) > 1 && (len(sellers) == 1 || buyers[1].s/s.s >= b.s/sellers[1].s) {
		return buyers[1], s, "second buyer"
	}
	if len(sellers) > 1 {
		return b, sellers[1], "second seller"
	}
	return b, s, "none"
}

// Property: with many users sharing a few distinct speedups — so ties
// decide nearly every comparison and the best buyer is often the best
// seller too — scan's one pass over the parties in user-ID order, for
// every generation pair at once, picks exactly the pair the lists sorted
// by speedup and user ID would.
func TestPickPairMatchesSortedSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	speedups := []float64{1.5, 2, 2, 3} // few distinct values, one doubled
	branches := map[string]int{}
	for trial := 0; trial < 2000; trial++ {
		alloc := fairshare.Allocation{}
		vals := Values{}
		for i, n := 0, 1+rng.Intn(12); i < n; i++ {
			u := job.UserID(fmt.Sprintf("u%02d", rng.Intn(40)))
			var e fairshare.Entitlement
			if rng.Intn(4) > 0 {
				e[gpu.K80] = float64(1 + rng.Intn(3))
			}
			if rng.Intn(4) > 0 {
				e[gpu.V100] = float64(1 + rng.Intn(3))
			}
			alloc[u] = e
			if rng.Intn(8) > 0 { // a few users unprofiled
				vals[u] = valueVec(1, 0, 0, speedups[rng.Intn(len(speedups))])
			}
		}
		var parties []Party
		for _, u := range job.SortedUsers(alloc) {
			parties = append(parties, Party{User: u, Share: alloc[u], Values: vals[u], Demand: math.Inf(1)})
		}
		wb, ws, how := pickPairSorted(parties, gpu.V100, gpu.K80)
		branches[how]++
		var found [len(pairs)]partners
		scan(parties, pairs[:], found[:])
		b, s, ok := found[slices.Index(pairs[:], pair{gpu.V100, gpu.K80})].pick()
		if ok != (how != "none") || (ok && (b != wb || s != ws)) {
			t.Fatalf("trial %d: one pass picked %+v/%+v ok=%v, sorted lists (%s) %+v/%+v\nalloc %v\nvals %v",
				trial, b, s, ok, how, wb, ws, alloc, vals)
		}
	}
	for _, how := range []string{"none", "heads", "second buyer", "second seller"} {
		if branches[how] < 20 {
			t.Errorf("inputs too tame: branch %q taken %d times of 2000 (%v)", how, branches[how], branches)
		}
	}
}

// speedupOn returns the party's value ratio fast/slow, or ok=false if
// either side lacks an estimate.
func (p *Party) speedupOn(fast, slow gpu.Generation) (float64, bool) {
	v := &p.Values
	if v[fast] <= eps || v[slow] <= eps {
		return 0, false
	}
	return v[fast] / v[slow], true
}
