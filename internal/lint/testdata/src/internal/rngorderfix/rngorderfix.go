// Package rngorderfix exercises order's RNG rule: draws from a seeded
// stream inside contexts whose execution order is not the program
// order, which silently reassigns samples between runs.
package rngorderfix

import (
	"math/rand"
	"sort"

	"repro/internal/profiler"
)

// BadGoroutine draws on the scheduler's clock.
func BadGoroutine(rng *rand.Rand, done chan struct{}) {
	go func() {
		_ = rng.Float64()
		close(done)
	}()
}

// BadComparator draws inside a sort comparator; the comparison
// sequence depends on the input permutation.
func BadComparator(rng *rand.Rand, xs []int) {
	sort.Slice(xs, func(i, j int) bool {
		return rng.Float64() < 0.5
	})
}

// BadMapRange draws once per map iteration; which key gets which
// sample follows the map.
func BadMapRange(rng *rand.Rand, m map[string]int) int {
	n := 0
	for range m {
		n += rng.Intn(3)
	}
	return n
}

// BadProfilerGoroutine consumes the shared profiler stream from a
// goroutine.
func BadProfilerGoroutine(p *profiler.Profiler, done chan struct{}) {
	go func() {
		p.ProbeAll(1)
		close(done)
	}()
}

// DrawOutsideOK draws in program order and hands the value in.
func DrawOutsideOK(rng *rand.Rand, xs []float64) {
	jitter := rng.Float64()
	go func() {
		_ = jitter
	}()
	for i := range xs {
		xs[i] = jitter
	}
}

// SliceRangeOK draws inside a slice range — program order.
func SliceRangeOK(rng *rand.Rand, xs []float64) {
	for i := range xs {
		xs[i] = rng.Float64()
	}
}
