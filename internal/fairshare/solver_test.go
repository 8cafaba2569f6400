package fairshare

import (
	"maps"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/gpu"
	"repro/internal/job"
)

// TestAllocationSolverMatchesComputeAllocation randomizes the policy
// inputs and requires Solve to equal a fresh ComputeAllocation.
func TestAllocationSolverMatchesComputeAllocation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	users := []job.UserID{"u1", "u2", "u3", "u4"}
	s := NewAllocationSolver()
	tickets := map[job.UserID]float64{}
	demand := map[job.UserID]float64{}
	caps := map[gpu.Generation]int{gpu.K80: 12, gpu.V100: 8}
	for _, u := range users {
		tickets[u] = 1 + rng.Float64()*2
		demand[u] = float64(rng.Intn(12))
	}
	var prev Allocation
	reuses := 0
	for step := 0; step < 80; step++ {
		// Mutate sometimes; identical inputs the rest of the time.
		if rng.Intn(3) == 0 {
			u := users[rng.Intn(len(users))]
			demand[u] = float64(rng.Intn(12))
		}
		if rng.Intn(10) == 0 {
			caps[gpu.K80] = 8 + rng.Intn(8)
		}
		want := ComputeAllocation(tickets, demand, caps)
		got := s.Solve(tickets, demand, caps)
		if prev != nil && reflect.ValueOf(got).Pointer() == reflect.ValueOf(prev).Pointer() {
			reuses++ // a reuse hands back the cached map itself
		}
		prev = got
		if !maps.Equal(got, want) { // entitlements are arrays: == compares every generation
			t.Fatalf("step %d: solver %v, want %v", step, got, want)
		}
	}
	if reuses == 0 {
		t.Fatal("memoization never fired: every step re-solved despite identical inputs")
	}
}
