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
}

const (
	// minRatio is the minimum s_buyer/s_seller ratio required to
	// trade: the conservative margin that keeps profiling noise from
	// triggering value-destroying trades.
	minRatio = 1.10
	// maxPasses bounds the outer fixpoint loop over generation pairs.
	maxPasses = 8
)

// Values holds each user's profiled per-generation value: the
// gang-weighted speedup of generation g over the oldest generation,
// aggregated over the user's runnable jobs. A zero entry means "no
// estimate"; users without estimates on a pair simply do not trade on
// it (their entitlement is untouched, preserving their guarantee).
type Values map[job.UserID][gpu.NumGenerations]float64

// Party is one user at the trading table: the entitlement trading
// rewrites, the profiled value vector it trades by (as in Values) and
// the user's demand. Demand bounds the post-trade total entitlement: a
// seller receives α > 1 slow GPUs per fast GPU given, which only
// translates into throughput if the seller has runnable work for them,
// so trades are capped at the growing side's spare demand (demand −
// current total). +Inf means no bound (all users backlogged).
type Party struct {
	User   job.UserID
	Share  fairshare.Entitlement
	Values [gpu.NumGenerations]float64
	Demand float64
}

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

// Market applies trading to the parties' shares in place and returns
// the executed trade log. Conservation holds per generation: column
// sums of the shares after equal those before. Parties are in user-ID
// order: where two users' speedups tie, the one placed first is picked.
// It allocates nothing but the log, and nothing at all when no trade is
// made.
//
// One scan over the parties finds every generation pair's partners; a
// pair looks again only at what a trade changed, so a round that trades
// nothing reads each party once a pass.
func Market(parties []Party, cfg Config) []Trade {
	var log []Trade
	var pts [len(pairs)]partners
	for pass := 0; pass < maxPasses; pass++ {
		// scanned: pts holds every later pair's partners over the shares
		// as they are now.
		traded, scanned := false, false
		for k, pr := range pairs {
			if !scanned {
				scan(parties, pairs[k:], pts[k:])
				scanned = true
			}
			for {
				tr, ok := bestTrade(parties, pr, &pts[k], cfg)
				if !ok {
					break
				}
				apply(parties, tr)
				log = append(log, tr.Trade)
				traded, scanned = true, false
				scan(parties, pairs[k:k+1], pts[k:k+1])
			}
		}
		if !traded {
			break
		}
	}
	return log
}

// Run is Market over maps: it applies trading to a fair-share
// allocation and returns the adjusted allocation plus the trade log.
// The input allocation is not modified. Users outside vals do not
// trade; users outside a non-nil demands map have demand zero, and a
// nil demands map disables the bound. The error is always nil: no
// Config is invalid, and the benchmark harness calls Run in this form.
//
//gflint:noretain alloc
func Run(alloc fairshare.Allocation, vals Values, demands map[job.UserID]float64, cfg Config) (fairshare.Allocation, []Trade, error) {
	users := job.SortedUsers(alloc)
	parties := make([]Party, len(users))
	for i, u := range users {
		demand := math.Inf(1)
		if demands != nil {
			demand = demands[u]
		}
		parties[i] = Party{User: u, Share: alloc[u], Values: vals[u], Demand: demand}
	}
	log := Market(parties, cfg)
	out := make(fairshare.Allocation, len(parties))
	for _, p := range parties {
		out[p.User] = p.Share
	}
	return out, log, nil
}

type pair struct{ fast, slow gpu.Generation }

// pairs enumerates (fast, slow) generation pairs, widest throughput gap
// first (newest vs oldest), so the most valuable trades execute before
// entitlements are consumed by lesser ones.
var pairs = genPairs()

func genPairs() (out [gpu.NumGenerations * (gpu.NumGenerations - 1) / 2]pair) {
	gens := gpu.Generations()
	n := 0
	for _, f := range gens {
		for _, s := range gens {
			if f > s {
				out[n] = pair{f, s}
				n++
			}
		}
	}
	sort.Slice(out[:], func(i, j int) bool {
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

// cand is one party's speedup on a generation pair; at is the party's
// position.
type cand struct {
	at int
	s  float64
}

// before orders candidates for one side of a trade: buyers by speedup
// descending (sign +1), sellers ascending (sign -1), ties by position,
// which is user-ID order. It is a total order, so the best candidates do
// not depend on the order they are offered in.
func (c cand) before(d cand, sign float64) bool {
	if c.s != d.s {
		return sign*c.s > sign*d.s
	}
	return c.at < d.at
}

// best2 keeps the first two candidates of one side under before.
type best2 struct {
	c [2]cand
	n int
}

// keep puts c among the first two under before, c having been found to
// sort before the second (or there being fewer than two).
func (b *best2) keep(c cand, sign float64) {
	if b.n < 2 {
		b.c[b.n] = c
		b.n++
	} else {
		b.c[1] = c
	}
	if b.n == 2 && b.c[1].before(b.c[0], sign) {
		b.c[0], b.c[1] = b.c[1], b.c[0]
	}
}

// partners is one generation pair's trading candidates: the best two
// buyers, the max-speedup parties holding slow currency, and the best
// two sellers, the min-speedup parties holding fast entitlement — the
// runners-up for when the extreme buyer and seller are one party.
type partners struct{ buyers, sellers best2 }

// scan finds each pair of prs its partners, in the matching element of
// out, in one pass over the parties.
func scan(parties []Party, prs []pair, out []partners) {
	clear(out)
	for i := range parties {
		p := &parties[i]
		// The generations the party has a value on and holds a share of:
		// its speedup on a pair is the ratio of its two values, and it
		// trades on the pair if it has both and holds either side.
		var valued, holds uint
		for g := range p.Values {
			if p.Values[g] > eps {
				valued |= 1 << g
			}
			if p.Share[g] > eps {
				holds |= 1 << g
			}
		}
		if holds == 0 || valued&(valued-1) == 0 {
			continue
		}
		for k, pr := range prs {
			fast, slow := uint(1)<<pr.fast, uint(1)<<pr.slow
			if valued&fast == 0 || valued&slow == 0 || holds&(fast|slow) == 0 {
				continue
			}
			// Parties come in position order, so one that ties the second
			// best sorts after it: only a strictly better speedup is kept.
			sp := p.Values[pr.fast] / p.Values[pr.slow]
			if bs := &out[k].buyers; holds&slow != 0 && (bs.n < 2 || sp > bs.c[1].s) {
				bs.keep(cand{i, sp}, +1)
			}
			if ss := &out[k].sellers; holds&fast != 0 && (ss.n < 2 || sp < ss.c[1].s) {
				ss.keep(cand{i, sp}, -1)
			}
		}
	}
}

// pick chooses one pair's trading partners: the extreme buyer and
// seller, or a runner-up on one side when those are one party.
func (pt *partners) pick() (b, s cand, ok bool) {
	buyers, sellers := &pt.buyers, &pt.sellers
	if buyers.n == 0 || sellers.n == 0 {
		return b, s, false
	}
	b, s = buyers.c[0], sellers.c[0]
	if b.at == s.at {
		// The extreme buyer and seller are the same party; try the
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

// found is one trade and where its two parties sit.
type found struct {
	Trade
	buyer, seller int
}

// bestTrade finds the most profitable single trade on one generation
// pair: its partners' pick, at a price strictly between their speedups,
// sized by what each holds and can use.
func bestTrade(parties []Party, pr pair, pt *partners, cfg Config) (found, bool) {
	fast, slow := pr.fast, pr.slow
	b, s, ok := pt.pick()
	if !ok {
		return found{}, false
	}
	if b.s/s.s < minRatio {
		return found{}, false
	}
	alpha := price(cfg.Policy, b.s, s.s)
	if alpha <= s.s+eps || alpha >= b.s-eps {
		return found{}, false
	}
	buyer, seller := &parties[b.at], &parties[s.at]
	// δ bounded by the seller's fast holding and the buyer's slow
	// purse at rate α.
	delta := math.Min(seller.Share[fast], buyer.Share[slow]/alpha)
	// One side's total GPU count grows: the seller's by (α−1)·δ when
	// α > 1, the buyer's by (1−α)·δ when α < 1 (possible only with
	// non-monotone valuations). Cap δ at the growing side's spare
	// demand so the gain is realizable as throughput; an unbounded
	// demand caps nothing.
	if alpha != 1 {
		grower := seller
		rate := alpha - 1
		if alpha < 1 {
			grower, rate = buyer, 1-alpha
		}
		spare := grower.Demand - grower.Share.Total()
		if spare < 0 {
			spare = 0
		}
		if lim := spare / rate; lim < delta {
			delta = lim
		}
	}
	if delta <= eps {
		return found{}, false
	}
	return found{Trade{
		Buyer: buyer.User, Seller: seller.User, Fast: fast, Slow: slow,
		FastGPUs: delta, SlowGPUs: alpha * delta, Price: alpha,
		BuyerSpeedup: b.s, SellerSpeedup: s.s,
	}, b.at, s.at}, true
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

func apply(parties []Party, t found) {
	eb, es := &parties[t.buyer].Share, &parties[t.seller].Share
	eb[t.Fast] += t.FastGPUs
	es[t.Fast] -= t.FastGPUs
	eb[t.Slow] -= t.SlowGPUs
	es[t.Slow] += t.SlowGPUs
	// Clamp the tiny negatives floating point can leave behind.
	for _, e := range []*fairshare.Entitlement{eb, es} {
		for g, v := range e {
			if v < 0 && v > -1e-6 {
				e[g] = 0
			}
		}
	}
}
