package trade

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fairshare"
	"repro/internal/gpu"
	"repro/internal/job"
)

// runMap is the map-based trading loop Market replaced, kept as the
// oracle its bits are held to: the allocation cloned, each pair's buyer
// and seller picked in one pass over the map under the (speedup, user
// ID) order, a nil demands map meaning no bound. margin counts the
// picked pairs whose speedup ratio exceeds 1: [0] those the minRatio
// margin refuses, [1] those it lets through.
func runMap(alloc fairshare.Allocation, vals Values, demands map[job.UserID]float64, cfg Config, margin *[2]int) (fairshare.Allocation, []Trade) {
	out := maps.Clone(alloc)
	var log []Trade
	type mcand struct {
		u job.UserID
		s float64
	}
	before := func(c, d mcand, sign float64) bool {
		if c.s != d.s {
			return sign*c.s > sign*d.s
		}
		return c.u < d.u
	}
	type best struct {
		c [2]mcand
		n int
	}
	offer := func(b *best, c mcand, sign float64) {
		switch {
		case b.n < 2:
			b.c[b.n] = c
			b.n++
		case before(c, b.c[1], sign):
			b.c[1] = c
		default:
			return
		}
		if b.n == 2 && before(b.c[1], b.c[0], sign) {
			b.c[0], b.c[1] = b.c[1], b.c[0]
		}
	}
	bestTrade := func(fast, slow gpu.Generation) (Trade, bool) {
		var buyers, sellers best
		for u, e := range out {
			v, ok := vals[u]
			if !ok || v[fast] <= eps || v[slow] <= eps {
				continue
			}
			sp := v[fast] / v[slow]
			if e[slow] > eps {
				offer(&buyers, mcand{u, sp}, +1)
			}
			if e[fast] > eps {
				offer(&sellers, mcand{u, sp}, -1)
			}
		}
		if buyers.n == 0 || sellers.n == 0 {
			return Trade{}, false
		}
		b, s := buyers.c[0], sellers.c[0]
		if b.u == s.u {
			if buyers.n > 1 && (sellers.n == 1 || buyers.c[1].s/s.s >= b.s/sellers.c[1].s) {
				b = buyers.c[1]
			} else if sellers.n > 1 {
				s = sellers.c[1]
			} else {
				return Trade{}, false
			}
		}
		if r := b.s / s.s; r < minRatio {
			if r > 1 {
				margin[0]++
			}
			return Trade{}, false
		}
		margin[1]++
		alpha := price(cfg.Policy, b.s, s.s)
		if alpha <= s.s+eps || alpha >= b.s-eps {
			return Trade{}, false
		}
		delta := math.Min(out[s.u][fast], out[b.u][slow]/alpha)
		if demands != nil && alpha != 1 {
			grower, rate := s.u, alpha-1
			if alpha < 1 {
				grower, rate = b.u, 1-alpha
			}
			spare := demands[grower] - out[grower].Total()
			if spare < 0 {
				spare = 0
			}
			if lim := spare / rate; lim < delta {
				delta = lim
			}
		}
		if delta <= eps {
			return Trade{}, false
		}
		return Trade{Buyer: b.u, Seller: s.u, Fast: fast, Slow: slow,
			FastGPUs: delta, SlowGPUs: alpha * delta, Price: alpha,
			BuyerSpeedup: b.s, SellerSpeedup: s.s}, true
	}
	for pass := 0; pass < maxPasses; pass++ {
		traded := false
		for _, pr := range genPairs() {
			for {
				tr, ok := bestTrade(pr.fast, pr.slow)
				if !ok {
					break
				}
				eb, es := out[tr.Buyer], out[tr.Seller]
				eb[tr.Fast] += tr.FastGPUs
				es[tr.Fast] -= tr.FastGPUs
				eb[tr.Slow] -= tr.SlowGPUs
				es[tr.Slow] += tr.SlowGPUs
				for _, e := range []*fairshare.Entitlement{&eb, &es} {
					for g, v := range e {
						if v < 0 && v > -1e-6 {
							e[g] = 0
						}
					}
				}
				out[tr.Buyer], out[tr.Seller] = eb, es
				log = append(log, tr)
				traded = true
			}
		}
		if !traded {
			break
		}
	}
	return out, log
}

// TestMarketMatchesMapRun holds the positional market, through Run, to
// the map-based loop bit for bit — the same trades in the same order and
// the same shares after — on allocations where ties in speedup decide
// most picks, with and without demand bounds (a nil map, users missing
// from it, demands below the current holding), unprofiled users, every
// price policy and non-monotone valuations. The picked pairs' speedup
// ratios fall on both sides of the minRatio margin.
func TestMarketMatchesMapRun(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	values := []float64{0, 0.8, 1, 1.2, 1.5, 2, 2, 3, 4.5}
	gpusOf := []float64{0, 0, 0.5, 1, 2.25, 3, 7}
	trades := 0
	var margin [2]int
	for trial := 0; trial < 3000; trial++ {
		alloc, vals := fairshare.Allocation{}, Values{}
		var demands map[job.UserID]float64
		if rng.Intn(3) > 0 {
			demands = map[job.UserID]float64{}
		}
		for i, n := 0, 1+rng.Intn(16); i < n; i++ {
			u := job.UserID(fmt.Sprintf("u%02d", rng.Intn(60)))
			var e fairshare.Entitlement
			var v [gpu.NumGenerations]float64
			for g := range e {
				e[g] = gpusOf[rng.Intn(len(gpusOf))]
				v[g] = values[rng.Intn(len(values))]
			}
			alloc[u] = e
			if rng.Intn(6) > 0 {
				vals[u] = v
			}
			if demands != nil && rng.Intn(5) > 0 {
				demands[u] = e.Total() + float64(rng.Intn(12)) - 2
			}
		}
		cfg := Config{Policy: PricePolicy(rng.Intn(4))}
		wantAlloc, wantLog := runMap(alloc, vals, demands, cfg, &margin)
		gotAlloc, gotLog, err := Run(alloc, vals, demands, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotLog, wantLog) {
			t.Fatalf("trial %d: trades\n%+v\nthe map loop's\n%+v", trial, gotLog, wantLog)
		}
		if len(gotAlloc) != len(wantAlloc) {
			t.Fatalf("trial %d: %d users out, the map loop %d", trial, len(gotAlloc), len(wantAlloc))
		}
		for u, w := range wantAlloc {
			g := gotAlloc[u]
			for i := range w {
				if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
					t.Fatalf("trial %d: user %s holds %v, the map loop %v", trial, u, g, w)
				}
			}
		}
		trades += len(wantLog)
	}
	if trades < 3000 {
		t.Errorf("inputs too tame: %d trades in 3000 trials", trades)
	}
	if margin[0] < 100 || margin[1] < 100 {
		t.Errorf("inputs too tame: %d pairs refused by the %v margin, %d passed", margin[0], minRatio, margin[1])
	}
}
