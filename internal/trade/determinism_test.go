package trade

import (
	"math"
	"testing"

	"repro/internal/fairshare"
	"repro/internal/gpu"
)

// TestValueOfRepeatable guards ValueOf's fixed summation order: the
// entitlement values span magnitudes, so summing Σ_g E(g)·v(g) in a
// varying order would round differently between calls — and trades
// trigger on strict value comparisons, so a single ULP can flip a
// decision.
func TestValueOfRepeatable(t *testing.T) {
	e := fairshare.Entitlement{}
	var v [gpu.NumGenerations]float64
	for i, g := range gpu.Generations() {
		e[g] = math.Exp2(float64(20*i-20)) * (1 + float64(i)/math.Pi)
		v[g] = math.Pi / float64(i+1)
	}
	want := ValueOf(e, v)
	for trial := 1; trial < 150; trial++ {
		if got := ValueOf(e, v); got != want {
			t.Fatalf("trial %d: ValueOf %v, first call %v", trial, got, want)
		}
	}
}
