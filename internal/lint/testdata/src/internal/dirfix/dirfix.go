// Package dirfix exercises //gflint:ignore against the dataflow
// analyzers: every finding below carries a justified suppression, so
// this package must produce zero diagnostics. If an analyzer
// regresses and stops reporting, its directive goes stale and the
// stale-suppression check resurfaces it — the fixture is self-arming.
package dirfix

import (
	"math/rand"
	"sync"
)

type state struct {
	//gflint:noretain fixture contract
	items []int
}

var hold []int

func retainIgnored(st *state) {
	//gflint:ignore retain fixture demonstrates a justified suppression
	hold = st.items
}

func orderedSumIgnored(m map[string]float64) float64 {
	var vals []float64
	for _, v := range m {
		//gflint:ignore order order documented as irrelevant here
		vals = append(vals, v)
	}
	var total float64
	for _, v := range vals {
		//gflint:ignore order tolerance below accepts any rounding
		total += v
	}
	return total
}

func goroutineDrawIgnored(rng *rand.Rand, done chan struct{}) {
	go func() {
		//gflint:ignore order single goroutine in this fixture, order fixed
		_ = rng.Float64()
		close(done)
	}()
}

type guarded struct {
	mu sync.Mutex
	n  int
}

func lockholdIgnored(g *guarded, ch chan int) {
	g.mu.Lock()
	//gflint:ignore lockhold the peer never blocks in this fixture
	ch <- g.n
	g.mu.Unlock()
}

var buf []int

func scratchIgnored(xs []int) []int {
	s := buf[:0]
	s = append(s, xs...)
	buf = s
	//gflint:ignore retain caller consumes before the next call
	return s
}
