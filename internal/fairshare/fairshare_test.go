package fairshare

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gpu"
	"repro/internal/job"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestComputeEqualTicketsAmpleDemand(t *testing.T) {
	tk := EqualTickets("a", "b", "c", "d")
	dm := map[job.UserID]float64{"a": 100, "b": 100, "c": 100, "d": 100}
	sh := Compute(tk, dm, 40)
	for u, s := range sh {
		if !almost(s, 10) {
			t.Errorf("share[%s] = %v, want 10", u, s)
		}
	}
}

func TestComputeProportionalTickets(t *testing.T) {
	tk := map[job.UserID]float64{"a": 3, "b": 1}
	dm := map[job.UserID]float64{"a": 100, "b": 100}
	sh := Compute(tk, dm, 40)
	if !almost(sh["a"], 30) || !almost(sh["b"], 10) {
		t.Errorf("shares = %v, want a:30 b:10", sh)
	}
}

func TestComputeWaterFillingRedistribution(t *testing.T) {
	// a can only use 2 GPUs; its surplus flows to b and c in ticket
	// proportion.
	tk := EqualTickets("a", "b", "c")
	dm := map[job.UserID]float64{"a": 2, "b": 100, "c": 100}
	sh := Compute(tk, dm, 30)
	if !almost(sh["a"], 2) {
		t.Errorf("capped user got %v, want 2", sh["a"])
	}
	if !almost(sh["b"], 14) || !almost(sh["c"], 14) {
		t.Errorf("surplus not redistributed: %v", sh)
	}
}

func TestComputeCascadingCaps(t *testing.T) {
	// Two rounds of capping: a caps at 1, then b caps at 5.
	tk := EqualTickets("a", "b", "c")
	dm := map[job.UserID]float64{"a": 1, "b": 5, "c": 100}
	sh := Compute(tk, dm, 30)
	if !almost(sh["a"], 1) || !almost(sh["b"], 5) || !almost(sh["c"], 24) {
		t.Errorf("shares = %v, want a:1 b:5 c:24", sh)
	}
}

func TestComputeUndersubscribed(t *testing.T) {
	tk := EqualTickets("a", "b")
	dm := map[job.UserID]float64{"a": 3, "b": 4}
	sh := Compute(tk, dm, 100)
	if !almost(sh["a"], 3) || !almost(sh["b"], 4) {
		t.Errorf("undersubscribed shares = %v, want demand met exactly", sh)
	}
}

func TestComputeEdgeCases(t *testing.T) {
	if sh := Compute(nil, nil, 10); len(sh) != 0 {
		t.Errorf("empty inputs → %v", sh)
	}
	if sh := Compute(EqualTickets("a"), map[job.UserID]float64{"a": 5}, 0); len(sh) != 0 {
		t.Errorf("zero capacity → %v", sh)
	}
	// Zero tickets ⇒ no share even with demand.
	sh := Compute(map[job.UserID]float64{"a": 0, "b": 1},
		map[job.UserID]float64{"a": 10, "b": 10}, 10)
	if sh["a"] != 0 || !almost(sh["b"], 10) {
		t.Errorf("zero-ticket user: %v", sh)
	}
	// Zero demand ⇒ no share.
	sh = Compute(EqualTickets("a", "b"), map[job.UserID]float64{"a": 0, "b": 10}, 10)
	if sh["a"] != 0 || !almost(sh["b"], 10) {
		t.Errorf("zero-demand user: %v", sh)
	}
}

// Property suite for water-filling.
func TestPropertyWaterFilling(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(8)
		tk := map[job.UserID]float64{}
		dm := map[job.UserID]float64{}
		var users []job.UserID
		for i := 0; i < n; i++ {
			u := job.UserID(string(rune('a' + i)))
			users = append(users, u)
			tk[u] = float64(rng.Intn(5)) // may be zero
			dm[u] = float64(rng.Intn(20))
		}
		capacity := float64(rng.Intn(50))
		sh := Compute(tk, dm, capacity)

		var shareSum, demandSum float64
		for _, u := range users {
			if sh[u] < -1e-9 {
				t.Fatalf("negative share %v", sh[u])
			}
			if sh[u] > dm[u]+1e-6 {
				t.Fatalf("share %v exceeds demand %v", sh[u], dm[u])
			}
			shareSum += sh[u]
			if tk[u] > 0 {
				demandSum += dm[u]
			}
		}
		if shareSum > capacity+1e-6 {
			t.Fatalf("allocated %v > capacity %v", shareSum, capacity)
		}
		// Work conservation: all capacity used or all demand met.
		if shareSum < math.Min(capacity, demandSum)-1e-6 {
			t.Fatalf("left capacity on the table: allocated %v, capacity %v, demand %v",
				shareSum, capacity, demandSum)
		}
		// Uncapped users (share < demand) must be ticket-proportional
		// to each other.
		type unc struct{ s, t float64 }
		var us []unc
		for _, u := range users {
			if tk[u] > 0 && sh[u] < dm[u]-1e-6 && sh[u] > 1e-9 {
				us = append(us, unc{sh[u], tk[u]})
			}
		}
		for i := 1; i < len(us); i++ {
			r0 := us[0].s / us[0].t
			ri := us[i].s / us[i].t
			if math.Abs(r0-ri) > 1e-6 {
				t.Fatalf("uncapped users not proportional: %v vs %v", r0, ri)
			}
		}
	}
}

func TestSplitByGen(t *testing.T) {
	caps := CapacityOf(map[gpu.Generation]int{gpu.K80: 40, gpu.V100: 10})
	e := caps.Split(10)
	if !almost(e[gpu.K80], 8) || !almost(e[gpu.V100], 2) {
		t.Errorf("split = %v, want K80:8 V100:2", e)
	}
	if caps.Split(0) != (Entitlement{}) {
		t.Error("zero total split nonzero")
	}
	if none := CapacityOf(nil); none.Split(5) != (Entitlement{}) {
		t.Error("nil capacities split nonzero")
	}
}

func TestComputeAllocationAndValidate(t *testing.T) {
	caps := map[gpu.Generation]int{gpu.K80: 30, gpu.V100: 10}
	tk := EqualTickets("a", "b")
	dm := map[job.UserID]float64{"a": 100, "b": 100}
	alloc := ComputeAllocation(tk, dm, caps)
	if err := alloc.Validate(dm, caps); err != nil {
		t.Fatal(err)
	}
	if !almost(alloc["a"].Total(), 20) || !almost(alloc["b"].Total(), 20) {
		t.Errorf("totals = %v", alloc)
	}
	if !almost(alloc["a"][gpu.V100], 5) {
		t.Errorf("a's V100 share = %v, want 5", alloc["a"][gpu.V100])
	}
	byGen := alloc.TotalByGen()
	if !almost(byGen[gpu.K80], 30) || !almost(byGen[gpu.V100], 10) {
		t.Errorf("per-gen totals = %v", byGen)
	}
}

func TestAllocationValidateCatchesViolations(t *testing.T) {
	caps := map[gpu.Generation]int{gpu.K80: 10}
	dm := map[job.UserID]float64{"a": 5}
	over := Allocation{"a": {gpu.K80: 11}}
	if over.Validate(dm, caps) == nil {
		t.Error("over-capacity allocation validated")
	}
	overDemand := Allocation{"a": {gpu.K80: 6}}
	if overDemand.Validate(dm, caps) == nil {
		t.Error("over-demand allocation validated")
	}
	neg := Allocation{"a": {gpu.K80: -1}}
	if neg.Validate(dm, caps) == nil {
		t.Error("negative allocation validated")
	}
}

func TestJobTickets(t *testing.T) {
	tk := map[job.UserID]float64{"a": 6, "b": 2, "c": 0}
	jobs := map[job.UserID]int{"a": 3, "b": 1, "c": 4, "d": 2}
	jt := JobTickets(tk, jobs)
	if !almost(jt["a"], 2) || !almost(jt["b"], 2) {
		t.Errorf("job tickets = %v", jt)
	}
	if _, ok := jt["c"]; ok {
		t.Error("zero-ticket user present")
	}
	if _, ok := jt["d"]; ok {
		t.Error("unknown user present")
	}
	if len(JobTickets(tk, map[job.UserID]int{"a": 0})) != 0 {
		t.Error("user with zero jobs got tickets")
	}
}

func TestFairFractions(t *testing.T) {
	tk := map[job.UserID]float64{"a": 1, "b": 3}
	fr := FairFractions(tk, []job.UserID{"a", "b"})
	if !almost(fr["a"], 0.25) || !almost(fr["b"], 0.75) {
		t.Errorf("fractions = %v", fr)
	}
	// Inactive users excluded from the denominator.
	fr = FairFractions(tk, []job.UserID{"b"})
	if !almost(fr["b"], 1) {
		t.Errorf("single active fraction = %v", fr["b"])
	}
	if len(FairFractions(tk, nil)) != 0 {
		t.Error("no active users → nonempty fractions")
	}
	fr = FairFractions(map[job.UserID]float64{"a": 0}, []job.UserID{"a"})
	if len(fr) != 0 {
		t.Errorf("all-zero tickets → %v", fr)
	}
}

func TestMaxShareError(t *testing.T) {
	ideal := map[job.UserID]float64{"a": 0.5, "b": 0.5}
	obs := map[job.UserID]float64{"a": 0.45, "b": 0.55}
	if e := MaxShareError(obs, ideal); !almost(e, 0.05) {
		t.Errorf("MaxShareError = %v, want 0.05", e)
	}
	if e := MaxShareError(map[job.UserID]float64{}, ideal); !almost(e, 0.5) {
		t.Errorf("missing observations → %v, want 0.5", e)
	}
}

// TestWaterFillWithDebt holds the debt fill's shares to the plain
// fill's on three users of 12 GPUs each over a 12-GPU cluster.
func TestWaterFillWithDebt(t *testing.T) {
	const capacity, budget = 12.0, 0.25
	tickets := []float64{1, 1, 1}
	demand := []float64{12, 12, 12}
	fill := func(demand, debt []float64, maxRepayFrac float64) (plain, shares []float64) {
		t.Helper()
		plain, shares = make([]float64, len(demand)), make([]float64, len(demand))
		target, reduced := make([]float64, len(demand)), make([]float64, len(demand))
		for i := range target { // stale scratch: the fill must overwrite it
			target[i], reduced[i] = 99, 99
		}
		pending := make([]int32, len(demand))
		WaterFill(tickets, demand, capacity, plain, pending)
		WaterFillWithDebt(tickets, demand, debt, capacity, maxRepayFrac, target, reduced, shares, pending)
		var sum float64
		for i, sh := range shares {
			if sh == Unreached {
				continue
			}
			if sh < 0 || sh > demand[i]+1e-9 {
				t.Errorf("user %d: share %v outside [0, demand %v]", i, sh, demand[i])
			}
			sum += sh
		}
		if sum > capacity+1e-6 {
			t.Errorf("shares %v sum to %v, over capacity %v", shares, sum, capacity)
		}
		return plain, shares
	}
	same := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("%s: shares %v, want the plain fill's %v bit for bit", what, got, want)
				return
			}
		}
	}

	// No debt gives no extra: the plain fill, bit for bit.
	plain, shares := fill(demand, []float64{0, 0, 0}, budget)
	same("no debt", shares, plain)

	// A debtor is repaid off the top: a gains beyond its equal share,
	// by no more than it is owed.
	debt := []float64{2, 0, 0}
	plain, shares = fill(demand, debt, budget)
	if extra := shares[0] - plain[0]; extra <= 1e-9 || extra > debt[0]+1e-9 {
		t.Errorf("debtor gains %v over its plain share %v, want (0, %v]", extra, plain[0], debt[0])
	}

	// The repayment budget caps what the debtors gain together.
	plain, shares = fill(demand, []float64{100, 100, 0}, budget)
	if extra := shares[0] - plain[0] + shares[1] - plain[1]; extra <= 1e-9 || extra > budget*capacity+1e-6 {
		t.Errorf("debtors gain %v together, want (0, %v]", extra, budget*capacity)
	}

	// A zero budget disables repayment: the plain fill, bit for bit.
	plain, shares = fill(demand, debt, 0)
	same("zero budget", shares, plain)

	// Repayment is demand-capped: a debtor with no runnable work gains
	// nothing, and the others are filled as without the debt.
	plain, shares = fill([]float64{0, 12, 12}, debt, budget)
	same("idle debtor", shares, plain)
}
