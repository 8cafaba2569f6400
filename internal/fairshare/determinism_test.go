package fairshare

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/gpu"
	"repro/internal/job"
)

// adversarialByUser builds a per-user map whose values span ~36 orders
// of magnitude, so any summation whose order follows Go's randomized
// map iteration rounds differently between calls. Repeating a
// computation many times over such a map is the regression harness for
// the gflint order fixes: each call sees a fresh iteration order.
func adversarialByUser(n int) map[job.UserID]float64 {
	out := make(map[job.UserID]float64, n)
	for i := 0; i < n; i++ {
		out[job.UserID(fmt.Sprintf("u%03d", i))] = math.Exp2(float64(i%60-30)) * (1 + float64(i)/math.Pi)
	}
	return out
}

// repeatable runs fn many times and reports the first call whose
// result differs bit-for-bit from the first.
func repeatable[K comparable](t *testing.T, name string, fn func() map[K]float64) {
	t.Helper()
	want := fn()
	for trial := 1; trial < 150; trial++ {
		got := fn()
		if len(got) != len(want) {
			t.Fatalf("%s: trial %d returned %d entries, first call %d", name, trial, len(got), len(want))
		}
		for k, v := range want {
			if g, ok := got[k]; !ok || g != v {
				t.Fatalf("%s: trial %d differs at %v: %v vs %v", name, trial, k, g, v)
			}
		}
	}
}

func TestComputeAllocationRepeatable(t *testing.T) {
	tickets := adversarialByUser(40)
	demand := adversarialByUser(40)
	capacities := make(map[gpu.Generation]int)
	for i, g := range gpu.Generations() {
		capacities[g] = 7 * (i + 1)
	}
	run := func() Allocation { return ComputeAllocation(tickets, demand, capacities) }
	want := run()
	for trial := 1; trial < 150; trial++ {
		got := run()
		for u, ent := range want {
			for g, v := range ent {
				if got[u][g] != v {
					t.Fatalf("trial %d differs at %s/%v: %v vs %v", trial, u, g, got[u][g], v)
				}
			}
		}
	}
}

func TestFlattenRepeatable(t *testing.T) {
	weights := adversarialByUser(40)
	h := MustNewHierarchy(map[string]*Org{
		"big":   {Tickets: 3, Weights: weights},
		"small": {Tickets: 1, Weights: map[job.UserID]float64{"z-solo": 1}},
	})
	var active []job.UserID
	for _, u := range job.SortedUsers(weights) {
		if u != "u000" { // one idle member, so wsum is a strict subset sum
			active = append(active, u)
		}
	}
	active = append(active, "z-solo")
	repeatable(t, "Flatten", func() map[job.UserID]float64 {
		return h.Flatten(active)
	})
}
