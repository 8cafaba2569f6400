// Package trade implements Gandiva_fair's automatic resource trading.
//
// After fair-share entitlements are computed (heterogeneity-blind:
// every user gets a capacity-proportional slice of every GPU
// generation), trading exploits the fact that the marginal utility of
// a fast GPU differs across users: a user training compute-dense
// models gains 4–6× from a V100 over a K80, while a memory-bound
// user gains barely 1.2×.
//
// The mechanism greedily matches the user with the highest profiled
// speedup (the buyer) against the user with the lowest (the seller):
// the buyer receives δ fast GPUs from the seller and pays α·δ slow
// GPUs, with the exchange rate α chosen strictly between the two
// users' speedups. Both users' throughput-valued allocation then
// strictly increases — a Pareto improvement — so trading can only
// ever help, and no user's fairness guarantee is weakened. Trades are
// recomputed from fresh entitlements and fresh profiles every
// scheduling round, so they self-correct as jobs arrive and finish.
package trade

import (
	"fmt"
	"maps"
	"math"
	"sort"

	"repro/internal/fairshare"
	"repro/internal/gpu"
	"repro/internal/job"
)

// PricePolicy chooses the exchange rate α within (s_seller, s_buyer).
type PricePolicy int

const (
	// Geometric sets α = √(s_b·s_s): symmetric in ratio space, the
	// repository default.
	Geometric PricePolicy = iota
	// Midpoint sets α = (s_b+s_s)/2.
	Midpoint
	// SellerFloor sets α just above s_s, giving the buyer almost all
	// of the gains from trade.
	SellerFloor
	// BuyerCeiling sets α just below s_b, giving the seller almost
	// all of the gains.
	BuyerCeiling
)

func (p PricePolicy) String() string {
	switch p {
	case Geometric:
		return "geometric"
	case Midpoint:
		return "midpoint"
	case SellerFloor:
		return "seller-floor"
	case BuyerCeiling:
		return "buyer-ceiling"
	default:
		return fmt.Sprintf("PricePolicy(%d)", int(p))
	}
}

// Config tunes the trading loop.
type Config struct {
	Policy PricePolicy

	// MinRatio is the minimum s_buyer/s_seller ratio required to
	// trade; the conservative margin that keeps profiling noise from
	// triggering value-destroying trades. Zero means the default 1.10.
	MinRatio float64

	// MaxPasses bounds the outer fixpoint loop over generation
	// pairs. Zero means the default 8.
	MaxPasses int
}

func (c Config) withDefaults() Config {
	if c.MinRatio == 0 {
		c.MinRatio = 1.10
	}
	if c.MaxPasses == 0 {
		c.MaxPasses = 8
	}
	return c
}

// Validate checks the config.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.MinRatio <= 1 {
		return fmt.Errorf("trade: MinRatio %v must exceed 1", c.MinRatio)
	}
	if c.MaxPasses < 1 {
		return fmt.Errorf("trade: MaxPasses %d must be positive", c.MaxPasses)
	}
	return nil
}

// Values holds each user's profiled per-generation value: the
// gang-weighted speedup of generation g over the oldest generation,
// aggregated over the user's runnable jobs. A zero entry means "no
// estimate"; users without estimates on a pair simply do not trade on
// it (their entitlement is untouched, preserving their guarantee).
type Values map[job.UserID][gpu.NumGenerations]float64

// Trade records one executed exchange.
type Trade struct {
	Buyer, Seller job.UserID
	Fast, Slow    gpu.Generation
	FastGPUs      float64 // δ, moved seller → buyer
	SlowGPUs      float64 // α·δ, moved buyer → seller
	Price         float64 // α
	BuyerSpeedup  float64 // s_b = value_b(fast)/value_b(slow)
	SellerSpeedup float64 // s_s
}

const eps = 1e-9

// Run applies trading to a fair-share allocation and returns the
// adjusted allocation plus the executed trade log. The input
// allocation is not modified. Conservation holds per generation:
// column sums of the output equal those of the input.
//
// demands bounds each user's post-trade total entitlement: a seller
// receives α > 1 slow GPUs per fast GPU given, which only translates
// into throughput if the seller has runnable work for them, so trades
// are capped at the seller's spare demand (demand − current total).
// A nil demands map disables the bound (all users backlogged).
//
//gflint:noretain alloc
func Run(alloc fairshare.Allocation, vals Values, demands map[job.UserID]float64, cfg Config) (fairshare.Allocation, []Trade, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	cfg = cfg.withDefaults()
	out := maps.Clone(alloc)
	var log []Trade

	pairs := genPairs()
	for pass := 0; pass < cfg.MaxPasses; pass++ {
		traded := false
		for _, pr := range pairs {
			for {
				tr, ok := bestTrade(out, vals, demands, pr.fast, pr.slow, cfg)
				if !ok {
					break
				}
				apply(out, tr)
				log = append(log, tr)
				traded = true
			}
		}
		if !traded {
			break
		}
	}
	return out, log, nil
}

type pair struct{ fast, slow gpu.Generation }

// genPairs enumerates (fast, slow) generation pairs, widest
// throughput gap first (newest vs oldest), so the most valuable
// trades execute before entitlements are consumed by lesser ones.
func genPairs() []pair {
	gens := gpu.Generations()
	var out []pair
	for _, f := range gens {
		for _, s := range gens {
			if f > s {
				out = append(out, pair{f, s})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		di := int(out[i].fast) - int(out[i].slow)
		dj := int(out[j].fast) - int(out[j].slow)
		if di != dj {
			return di > dj
		}
		if out[i].fast != out[j].fast {
			return out[i].fast > out[j].fast
		}
		return out[i].slow > out[j].slow
	})
	return out
}

// speedupOn returns user u's value ratio fast/slow, or ok=false if
// either side lacks an estimate.
func speedupOn(vals Values, u job.UserID, fast, slow gpu.Generation) (float64, bool) {
	v, ok := vals[u]
	if !ok {
		return 0, false
	}
	if v[fast] <= eps || v[slow] <= eps {
		return 0, false
	}
	return v[fast] / v[slow], true
}

// cand is one user's speedup on a generation pair.
type cand struct {
	u job.UserID
	s float64
}

// before orders candidates for one side of a trade: buyers by speedup
// descending (sign +1), sellers ascending (sign -1), ties by user ID. It
// is a total order, so the best candidates are the same whatever order
// the allocation map yields its users in.
func (c cand) before(d cand, sign float64) bool {
	if c.s != d.s {
		return sign*c.s > sign*d.s
	}
	return c.u < d.u
}

// best2 keeps the first two candidates of one side under before.
type best2 struct {
	c [2]cand
	n int
}

func (b *best2) offer(c cand, sign float64) {
	switch {
	case b.n < 2:
		b.c[b.n] = c
		b.n++
	case c.before(b.c[1], sign):
		b.c[1] = c
	default:
		return
	}
	if b.n == 2 && b.c[1].before(b.c[0], sign) {
		b.c[0], b.c[1] = b.c[1], b.c[0]
	}
}

// pickPair finds one generation pair's trading partners: buyer = the
// max-speedup user holding slow currency, seller = the min-speedup
// user holding fast entitlement. One pass keeps each side's best two,
// the runner-up for when the extreme buyer and seller are one user.
func pickPair(alloc fairshare.Allocation, vals Values, fast, slow gpu.Generation) (b, s cand, ok bool) {
	var buyers, sellers best2
	for u, e := range alloc {
		sp, ok := speedupOn(vals, u, fast, slow)
		if !ok {
			continue
		}
		if e[slow] > eps {
			buyers.offer(cand{u, sp}, +1)
		}
		if e[fast] > eps {
			sellers.offer(cand{u, sp}, -1)
		}
	}
	if buyers.n == 0 || sellers.n == 0 {
		return b, s, false
	}
	b, s = buyers.c[0], sellers.c[0]
	if b.u == s.u {
		// The extreme buyer and seller are the same user; try the
		// next-best on either side.
		if buyers.n > 1 && (sellers.n == 1 || buyers.c[1].s/s.s >= b.s/sellers.c[1].s) {
			b = buyers.c[1]
		} else if sellers.n > 1 {
			s = sellers.c[1]
		} else {
			return b, s, false
		}
	}
	return b, s, true
}

// bestTrade finds the most profitable single trade on one generation
// pair: pickPair's partners, at a price strictly between their
// speedups, sized by what each holds and can use.
func bestTrade(alloc fairshare.Allocation, vals Values, demands map[job.UserID]float64, fast, slow gpu.Generation, cfg Config) (Trade, bool) {
	b, s, ok := pickPair(alloc, vals, fast, slow)
	if !ok {
		return Trade{}, false
	}
	if b.s/s.s < cfg.MinRatio {
		return Trade{}, false
	}
	alpha := price(cfg.Policy, b.s, s.s)
	if alpha <= s.s+eps || alpha >= b.s-eps {
		return Trade{}, false
	}
	// δ bounded by the seller's fast holding and the buyer's slow
	// purse at rate α.
	delta := math.Min(alloc[s.u][fast], alloc[b.u][slow]/alpha)
	// One side's total GPU count grows: the seller's by (α−1)·δ when
	// α > 1, the buyer's by (1−α)·δ when α < 1 (possible only with
	// non-monotone valuations). Cap δ at the growing side's spare
	// demand so the gain is realizable as throughput.
	if demands != nil && alpha != 1 {
		grower := s.u
		rate := alpha - 1
		if alpha < 1 {
			grower, rate = b.u, 1-alpha
		}
		spare := demands[grower] - alloc[grower].Total()
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
	return Trade{
		Buyer: b.u, Seller: s.u, Fast: fast, Slow: slow,
		FastGPUs: delta, SlowGPUs: alpha * delta, Price: alpha,
		BuyerSpeedup: b.s, SellerSpeedup: s.s,
	}, true
}

func price(p PricePolicy, sb, ss float64) float64 {
	const margin = 0.02 // keep strictly inside (ss, sb)
	switch p {
	case Midpoint:
		return (sb + ss) / 2
	case SellerFloor:
		return math.Min(ss*(1+margin), (sb+ss)/2)
	case BuyerCeiling:
		return math.Max(sb*(1-margin), (sb+ss)/2)
	default: // Geometric
		return math.Sqrt(sb * ss)
	}
}

func apply(alloc fairshare.Allocation, t Trade) {
	eb, es := alloc[t.Buyer], alloc[t.Seller]
	eb[t.Fast] += t.FastGPUs
	es[t.Fast] -= t.FastGPUs
	eb[t.Slow] -= t.SlowGPUs
	es[t.Slow] += t.SlowGPUs
	// Clamp the tiny negatives floating point can leave behind.
	for _, e := range []*fairshare.Entitlement{&eb, &es} {
		for g, v := range e {
			if v < 0 && v > -1e-6 {
				e[g] = 0
			}
		}
	}
	alloc[t.Buyer], alloc[t.Seller] = eb, es
}

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

// GainSummary aggregates a trade log into per-user value deltas for
// reporting: positive for every participant by construction.
func GainSummary(log []Trade, vals Values) map[job.UserID]float64 {
	gains := make(map[job.UserID]float64)
	for _, t := range log {
		vb, vs := vals[t.Buyer], vals[t.Seller]
		gains[t.Buyer] += t.FastGPUs*vb[t.Fast] - t.SlowGPUs*vb[t.Slow]
		gains[t.Seller] += t.SlowGPUs*vs[t.Slow] - t.FastGPUs*vs[t.Fast]
	}
	return gains
}
