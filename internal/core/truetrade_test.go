package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// trueTrades wraps a policy and holds every trade it makes to the
// speedups its parties' jobs really have. FairPolicy prices a trade
// strictly between the buyer's and the seller's profiled speedups
// (addValues, values); here each party's speedup is recomputed with the
// same formula — the gang-weighted mean, over the user's runnable jobs,
// of each generation's rate over the rate on the oldest generation the
// job has an estimate on — from the jobs' true rates (job.Perf) on the
// same generations. A buyer is worse off in truth when its true speedup
// is below the price, a seller when its true speedup is above it.
type trueTrades struct {
	Policy
	trades, worse int
	worst         float64 // the lowest true margin met: speedup over price − 1 for a buyer, price over speedup − 1 for a seller
	num, den      map[job.UserID]*[gpu.NumGenerations]float64
}

func (p *trueTrades) Decide(st *RoundState) Decision {
	dec := p.Policy.Decide(st)
	if len(dec.Trades) == 0 {
		return dec
	}
	p.num, p.den = map[job.UserID]*[gpu.NumGenerations]float64{}, map[job.UserID]*[gpu.NumGenerations]float64{}
	gens := st.Cluster.GensPresent()
	for _, j := range st.Jobs {
		if p.num[j.User] == nil {
			p.num[j.User], p.den[j.User] = new([gpu.NumGenerations]float64), new([gpu.NumGenerations]float64)
		}
		est := st.Prof.Estimates(j)
		base := gpu.Generation(-1)
		for _, g := range gens {
			if _, ok := est.Rate(g); ok {
				base = g
				break
			}
		}
		if base < 0 || j.Perf.RatePerGPU[base] <= 0 {
			continue
		}
		w := float64(j.Gang)
		for _, g := range gens {
			if _, ok := est.Rate(g); ok {
				p.num[j.User][g] += w * j.Perf.RatePerGPU[g] / j.Perf.RatePerGPU[base]
				p.den[j.User][g] += w
			}
		}
	}
	for _, tr := range dec.Trades {
		p.trades++
		buyer := p.speedup(tr.Buyer, tr.Fast, tr.Slow) / tr.Price
		seller := tr.Price / p.speedup(tr.Seller, tr.Fast, tr.Slow)
		for _, margin := range []float64{buyer - 1, seller - 1} {
			if margin < 0 || math.IsNaN(margin) {
				p.worse++
			}
			p.worst = math.Min(p.worst, margin)
		}
	}
	return dec
}

// speedup is u's true value of fast over slow.
func (p *trueTrades) speedup(u job.UserID, fast, slow gpu.Generation) float64 {
	num, den := p.num[u], p.den[u]
	return (num[fast] / den[fast]) / (num[slow] / den[slow])
}

// paperTraceConfig is gfperf's paper-trace workload: 204 GPUs of K80,
// P100 and V100, 70 users × 300 jobs of two zoo models each arriving
// as a Poisson stream, under the strict auditor.
func paperTraceConfig(t *testing.T, seed int64) Config {
	t.Helper()
	var specs []gpu.Spec
	for _, g := range []gpu.Generation{gpu.K80, gpu.P100, gpu.V100} {
		specs = append(specs, gpu.Spec{Gen: g, Servers: 17, GPUsPerSrv: 4})
	}
	zoo := workload.DefaultZoo()
	names := zoo.Names()
	users := make([]workload.UserSpec, 70)
	for i := range users {
		users[i] = workload.UserSpec{
			User: job.UserID(fmt.Sprintf("user%04d", i+1)), NumJobs: 300, ArrivalRatePerHour: 0.8, MeanK80Hours: 2,
			Models: []string{names[i%len(names)], names[(i+3)%len(names)]},
		}
	}
	jobs, err := workload.Generate(zoo, workload.Config{Seed: seed, Users: users})
	if err != nil {
		t.Fatal(err)
	}
	return Config{Cluster: gpu.MustNew(specs...), Specs: jobs, Quantum: 360, Seed: seed, Audit: AuditStrict}
}

// TestTradesLeaveNoPartyWorseOffInTruth: on the paper-trace shape at
// the default 3 % profiler noise, no trade leaves its buyer or its
// seller worse off in the speedups their jobs really have. The trade is
// a Pareto improvement on the profiled speedups by construction (the
// strict auditor's trade-price invariant); this holds it to the true
// ones. Seed 42 trades 427 times over the 1,800 rounds; seeds 7 and 911
// trade far less on this shape.
func TestTradesLeaveNoPartyWorseOffInTruth(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 1,800 rounds of a 70-user workload per seed")
	}
	for _, seed := range []int64{42, 7, 911} {
		p := &trueTrades{Policy: MustNewFairPolicy(FairConfig{EnableTrading: true}), worst: math.Inf(1)}
		s, err := New(paperTraceConfig(t, seed), p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(simclock.Time(1800 * 360))
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("seed %d: %d trades, %d parties worse off in truth, worst true margin %+.1f %%", seed, p.trades, p.worse, 100*p.worst)
		if p.trades != res.TradeCount {
			t.Errorf("seed %d: checked %d trades, the run made %d", seed, p.trades, res.TradeCount)
		}
		if p.worse > 0 {
			t.Errorf("seed %d: %d parties of %d trades are worse off in truth (worst margin %+.1f %%)", seed, p.worse, p.trades, 100*p.worst)
		}
	}
}
