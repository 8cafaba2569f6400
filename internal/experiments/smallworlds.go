package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/fairshare"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/simclock"
	"repro/internal/sweep"
	"repro/internal/workload"
)

func init() {
	register(Experiment{ID: "E13", Title: "Every small world: one-job users' gang mixes on 8 GPUs",
		Artifact: "E4 generalised (ROADMAP item 19)", Run: e13SmallWorlds})
}

// The bars a world is held to, from the gang-fair serve order's
// acceptance (ROADMAP item 18); this experiment only counts the worlds
// that miss them.
const (
	barPacking = 0.84  // utilisation over the best packing's
	barIdeal   = 0.8   // every user's share over their water-fill ideal
	barPeers   = 0.01  // share spread among users of one gang and tickets
	barRelabel = 0.001 // a user's share moved by reversing the labels
	worldGPUs  = 8
	worldModel = "resnet50" // every job's model
)

// smallWorld is one run of E13: a mix of one-job users, listed widest
// gang first, on one of the two clusters, with equal tickets or the
// first-listed user on two, its users labelled so that sorting them
// follows the listing or reverses it.
type smallWorld struct {
	family  int // index in worldFamilies
	gangs   []int
	double  bool
	reverse bool
}

// worldFamilies are the clusters every mix runs on: one 8-GPU server,
// and two 4-GPU servers, where a gang wider than a server spans both.
var worldFamilies = []struct {
	name    string
	servers int
}{{"1×8 GPUs", 1}, {"2×4 GPUs", 2}}

// gangMixes lists every multiset of 2 to 6 gangs from {8, 4, 2, 1},
// each widest first: 205 mixes.
func gangMixes() [][]int {
	widths := []int{8, 4, 2, 1}
	var out [][]int
	var grow func(mix []int, from, n int)
	grow = func(mix []int, from, n int) {
		if len(mix) == n {
			out = append(out, append([]int(nil), mix...))
			return
		}
		for i := from; i < len(widths); i++ {
			grow(append(mix, widths[i]), i, n)
		}
	}
	for n := 2; n <= 6; n++ {
		grow(nil, 0, n)
	}
	return out
}

func (w smallWorld) label() string {
	parts := make([]string, len(w.gangs))
	for i, g := range w.gangs {
		parts[i] = fmt.Sprint(g)
	}
	s := strings.Join(parts, "+")
	if w.double {
		s += ", first ×2 tickets"
	}
	if w.reverse {
		s += ", reversed"
	}
	return s
}

// user is the ID of the world's i-th listed user: IDs sort in listing
// order, or in reverse.
func (w smallWorld) user(i int) job.UserID {
	if w.reverse {
		i = len(w.gangs) - 1 - i
	}
	return job.UserID(fmt.Sprintf("u%d", i))
}

// tickets are the listed users' tickets.
func (w smallWorld) tickets() []float64 {
	t := make([]float64, len(w.gangs))
	for i := range t {
		t[i] = 1
	}
	if w.double {
		t[0] = 2
	}
	return t
}

// point is the world as a sweep point: one never-finishing job per
// user, job IDs in user-ID order, FairPolicy without trading.
func (w smallWorld) point(seed int64, rounds int) sweep.Point {
	fam := worldFamilies[w.family]
	cluster := gpu.MustNew(gpu.Spec{Gen: gpu.K80, Servers: fam.servers, GPUsPerSrv: worldGPUs / fam.servers})
	tickets := w.tickets()
	specs := make([]job.Spec, 0, len(w.gangs))
	ticketMap := make(map[job.UserID]float64, len(w.gangs))
	for n := range w.gangs {
		i := n // the listed user whose ID sorts n-th
		if w.reverse {
			i = len(w.gangs) - 1 - n
		}
		u := w.user(i)
		specs = append(specs, workload.BatchJobs(u, zoo.MustGet(worldModel), 1, w.gangs[i], 1e6)...)
		ticketMap[u] = tickets[i]
	}
	specs, err := workload.AssignIDs(specs)
	if err != nil {
		panic(err) // unreachable: the specs are built valid
	}
	const quantum = 360
	return point(w.label(), core.Config{Cluster: cluster, Specs: specs, Tickets: ticketMap, Seed: seed, Quantum: quantum},
		func() core.Policy { return core.MustNewFairPolicy(core.FairConfig{}) }, simclock.Time(rounds*quantum))
}

// worldResult is what E13 reads off one run: each listed user's share of
// the GPU time, and the utilisation.
type worldResult struct {
	shares []float64
	util   float64
}

func readWorld(w smallWorld, res *core.Result) worldResult {
	usage := res.TotalUsageByUser()
	capacity := res.Utilization.CapacityGPUSeconds
	out := worldResult{shares: make([]float64, len(w.gangs))}
	for i := range w.gangs {
		out.shares[i] = usage[w.user(i)] / capacity
		out.util += out.shares[i]
	}
	return out
}

// bestPacking is the most GPUs of worldGPUs that some set of the gangs
// fills.
func bestPacking(gangs []int) int {
	best := 0
	for set := 0; set < 1<<len(gangs); set++ {
		sum := 0
		for i, g := range gangs {
			if set&(1<<i) != 0 {
				sum += g
			}
		}
		if sum <= worldGPUs && sum > best {
			best = sum
		}
	}
	return best
}

// idealShares are the listed users' water-fill shares of the GPUs, as
// fractions: tickets over demand, the ideal the policy's long-run shares
// are measured against.
func idealShares(w smallWorld) []float64 {
	n := len(w.gangs)
	demand, shares := make([]float64, n), make([]float64, n)
	for i, g := range w.gangs {
		demand[i] = float64(g)
	}
	fairshare.WaterFill(w.tickets(), demand, worldGPUs, shares, make([]int32, n))
	for i := range shares {
		shares[i] = math.Max(shares[i], 0) / worldGPUs
	}
	return shares
}

// worst tracks one property's worst world and how many miss its bar.
type worst struct {
	what       string
	lower      bool // lower values are worse
	pp         bool // a difference of shares, shown in percentage points
	limit      float64
	value      float64
	world      string
	failing, n int
}

func (s *worst) show(v float64) string {
	if s.pp {
		return fmt.Sprintf("%.1f pp", 100*v)
	}
	return f2(v)
}

// bar is the property's bar as the table states it.
func (s *worst) bar() string {
	if s.lower {
		return "≥ " + s.show(s.limit)
	}
	return "≤ " + s.show(s.limit)
}

func (s *worst) see(world string, v float64) {
	s.n++
	if (s.lower && v < s.limit) || (!s.lower && v > s.limit) {
		s.failing++
	}
	if s.world == "" || (s.lower && v < s.value) || (!s.lower && v > s.value) {
		s.value, s.world = v, world
	}
}

// e13SmallWorlds runs FairPolicy on every small world — each mix of 2
// to 6 one-job users with gangs from {8, 4, 2, 1} (205 mixes), on one
// 8-GPU server and on two 4-GPU servers, with equal tickets and with the
// widest gang's user on two, each labelled in listing order and in
// reverse — and reports, per cluster and property, the worst world and
// how many miss the bar the gang-fair serve order must meet (ROADMAP
// item 18). It is a measurement: the table states what the policy does,
// and nothing here judges it.
func e13SmallWorlds(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	rounds := 2000
	if opt.Quick {
		rounds = 200
	}
	var worlds []smallWorld
	for fam := range worldFamilies {
		for _, gangs := range gangMixes() {
			for _, double := range []bool{false, true} {
				for _, reverse := range []bool{false, true} {
					worlds = append(worlds, smallWorld{family: fam, gangs: gangs, double: double, reverse: reverse})
				}
			}
		}
	}
	points := make([]sweep.Point, len(worlds))
	for i, w := range worlds {
		points[i] = w.point(opt.Seed, rounds)
	}
	results, err := runPoints(points)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "E13", Title: fmt.Sprintf("Every small world: FairPolicy on %d gang mixes × 2 clusters × 2 ticket splits × 2 labellings, %d rounds",
			len(gangMixes()), rounds),
		Columns: []string{"cluster", "property", "bar", "worlds missing it", "worst world", "worst"},
		Notes: "a measurement of today's serve order, not a judgement: utilisation is over the best packing of the " +
			"gangs; shares are of the GPU time, against the water-fill of tickets over gang demand; peers are users " +
			"with one gang width and one ticket count; relabelling compares a world with its reversal, user by user",
	}
	for fam, f := range worldFamilies {
		props := []*worst{
			{what: "utilisation / best packing", lower: true, limit: barPacking},
			{what: "min share / water-fill ideal", lower: true, limit: barIdeal},
			{what: "peers' share spread", pp: true, limit: barPeers},
			{what: "share moved by relabelling", pp: true, limit: barRelabel},
		}
		for i, w := range worlds {
			if w.family != fam {
				continue
			}
			got := readWorld(w, results[i])
			props[0].see(w.label(), got.util*worldGPUs/float64(bestPacking(w.gangs)))
			ideal, tickets := idealShares(w), w.tickets()
			minRatio, spread := math.Inf(1), 0.0
			for a := range w.gangs {
				if ideal[a] > 0 {
					minRatio = math.Min(minRatio, got.shares[a]/ideal[a])
				}
				for b := range a {
					if w.gangs[a] == w.gangs[b] && tickets[a] == tickets[b] {
						spread = math.Max(spread, math.Abs(got.shares[a]-got.shares[b]))
					}
				}
			}
			props[1].see(w.label(), minRatio)
			props[2].see(w.label(), spread)
			if w.reverse { // its labelled twin ran just before it
				twin := readWorld(worlds[i-1], results[i-1])
				moved := 0.0
				for a := range w.gangs {
					moved = math.Max(moved, math.Abs(got.shares[a]-twin.shares[a]))
				}
				props[3].see(strings.TrimSuffix(w.label(), ", reversed"), moved)
			}
		}
		for _, p := range props {
			t.AddRow(f.name, p.what, p.bar(), fmt.Sprintf("%d of %d", p.failing, p.n), p.world, p.show(p.value))
		}
	}
	return t, nil
}
