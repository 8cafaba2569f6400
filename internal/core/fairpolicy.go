package core

import (
	"math"
	"slices"

	"repro/internal/fairshare"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/profiler"
	"repro/internal/stride"
	"repro/internal/trade"
)

// FairConfig tunes the Gandiva_fair policy.
type FairConfig struct {
	// EnableTrading turns the automatic resource trading on (the
	// paper's full system). Off, the policy is the
	// heterogeneity-blind fair scheduler (the paper's no-trade
	// baseline).
	EnableTrading bool

	// Trade configures the trading loop when enabled.
	Trade trade.Config

	// Hierarchy, when set, replaces the flat per-user tickets with
	// two-level org → user fairness: each round the orgs' tickets are
	// flattened over the currently active users (see
	// fairshare.Hierarchy). RoundState tickets are then ignored.
	Hierarchy *fairshare.Hierarchy

	// DisableCompensation turns off failure compensation: deficits in
	// RoundState.Deficit are ignored and Decision.Repays stays false
	// (the compensation ablation). It is the one way to run without
	// repayment: the engine keeps the books whatever Config.Faults is.
	DisableCompensation bool
}

// compMaxShare caps per-round failure repayment at this fraction of
// total capacity, so catch-up cannot crowd out live shares.
const compMaxShare = 0.25

// FairPolicy implements Gandiva_fair: ticket fair share with
// water-filling, per-user gang-aware stride scheduling realized
// through per-(user, generation) deficit credits, work-conserving
// backfill, and optional automatic trading.
//
// Fairness mechanics per round:
//
//  1. Water-filling splits cluster capacity among active users by
//     tickets, capped by demand (fairshare.WaterFill, or
//     fairshare.WaterFillWithDebt while a user owes), then
//     trading (optionally) exchanges entitlement between generations
//     at Pareto prices.
//  2. Each user's per-generation entitlement accrues into a credit
//     counter, capped at the generation's capacity. A gang is
//     scheduled against credits, so a user whose big gang does not fit
//     this round keeps accumulating credit — but only up to the cap.
//     Once every user sits at it, users are served in position order
//     (the most-credit-first tie), and a gang whose user sorts after
//     enough small jobs to leave it no room never fits again: gang
//     granularity can starve a big gang (experiment E4's engine rows;
//     ROADMAP item 2).
//  3. Within a user, jobs are picked in gang-aware stride pass
//     order, so a user cannot bias their own jobs' shares by
//     splitting or merging work. Jobs stick to the generation they
//     last ran on when credit allows, and generation changes are
//     rate-limited by a cooldown to damp migration thrash.
//  4. Capacity left after all credits are spent is backfilled by a
//     global stride pass (charged, so chronic backfillers are
//     deprioritized) — work conservation without violating anyone's
//     guarantee.
//
// The policy's state is two dense tables (the layout of Gavel's jobs ×
// accelerator-type matrix): a row per user at the engine's position for
// them (job.Job.UserAt) and a row per job at its slot (job.Job.Slot).
// One walk over RoundState.Jobs a round (group) brings them up to date
// and lays the round out, after which Decide reads rows, never a
// *job.Job. The tables grow to the engine's user count and slot table,
// and every scratch slice to its high-water mark, so users and jobs that
// come and go cost no allocation once the policy has held as many at
// once as it will.
//
// A row lives as long as its user or job stays runnable: a user with no
// runnable job at the previous Decide starts afresh, and so does a job
// whose slot's row is another job's. Handed to Restore with its engine's
// checkpoint, the policy therefore keeps each user's credit, but a job's
// stride passes and migration cooldown only if the restored engine gives
// the job the slot it had.
type FairPolicy struct {
	cfg FairConfig

	// The tables, by user position and by slot.
	users []userRow
	jobs  []jobRow

	// The round's layout, laid out by group. active holds the positions of
	// the users with runnable jobs, in user-ID order; lay the slots of
	// their jobs, user-major: user u's are lay[users[u].lo:users[u].hi],
	// in the stride order last round's pass 1 left them in (next), each
	// job new to the policy after them in ID order.
	active []int32 //gflint:noretain rewritten by every group
	lay    []int32 //gflint:noretain rewritten by every group
	next   []int32 // pass 1's order of each user's slots, by position in lay: what the next round lays them out in
	added  []int32 //gflint:noretain the positions in RoundState.Jobs of jobs new to the policy

	round     int
	noMigrate bool

	// Decide's scratch, kept across rounds and rewritten, never rebuilt.
	// fill, parties and tickets are by position in active.
	fill     waterFill                          //gflint:noretain the round's water-fill
	tickets  []float64                          //gflint:noretain the round's hierarchical tickets
	userIDs  []job.UserID                       //gflint:noretain the round's users' IDs, for the hierarchy
	parties  []trade.Party                      //gflint:noretain the round's entitlements, value vectors and demands, as trade.Market takes them
	serve    []keyed                            //gflint:noretain pass 1's serve order, and room as long for its sort
	granted  []int32                            //gflint:noretain the round's grants as slots, in grant order (grant i is Decision.Run[i]), consumed by Executed
	run      []placement.Request                // the round's Decision.Run, rebuilt in place by the next Decide
	ranAt    []int32                            //gflint:noretain Executed's: one past where in ExecReport.Ran grant i's answer is, 0 if it did not run
	cands    []stride.Candidate                 //gflint:noretain one user's (pass 1) or one generation's (pass 2) candidates
	recs     []int32                            //gflint:noretain the slots of cands, by position
	order    []int32                            //gflint:noretain the stride kernel's positions in cands
	fillAt   []int32                            //gflint:noretain pass 2's candidate slots, by backfill pass
	fillKeys []keyed                            //gflint:noretain orderBackfill's sort, and room as long for its scratch
	gensBuf  [gpu.NumGenerations]gpu.Generation // the round's generations, newest first
}

// waterFill holds the fairshare kernels' inputs, outputs and scratch,
// one element per user.
type waterFill struct {
	tickets, demand, shares []float64
	debt                    []float64 // GPUs owed this round
	target, reduced         []float64 // the debt fill's scratch
	pending                 []int32   // the fill's scratch
}

// resize makes every slice n long, keeping the storage; debt is zeroed.
func (f *waterFill) resize(n int) {
	f.tickets, f.demand, f.shares, f.debt = resize(f.tickets, n), resize(f.demand, n), resize(f.shares, n), resize(f.debt, n)
	f.target, f.reduced, f.pending = resize(f.target, n), resize(f.reduced, n), resize(f.pending, n)
	clear(f.debt)
}

// room returns s emptied, with room for n elements: if it has to grow,
// to a quarter more than n, in one allocation, so a table that creeps up
// to new highs reallocates now and then, not at each of append's steps.
// (On gfperf's fault-churn, whose runnable jobs grow by half over a run,
// doubling instead allocated 15 % more.)
//
//gflint:reuses s
func room[S ~[]E, E any](s S, n int) S {
	if n > cap(s) {
		return make(S, 0, n+n/4)
	}
	return s[:0]
}

// resize returns s n long, in its storage if it has room (room); what
// it holds is the caller's to overwrite.
//
//gflint:reuses s
func resize[S ~[]E, E any](s S, n int) S { return room(s, n)[:n] }

// grow returns s at least n long, keeping what it holds. The tables it
// grows never shrink, so what they grow into is zero.
//
//gflint:reuses s
func grow[S ~[]E, E any](s S, n int) S {
	if n <= len(s) {
		return s
	}
	return slices.Grow(s, n-len(s))[:n]
}

// userRow is what the policy holds for one user: the credit that lives
// as long as the user stays active, and the round's view of their jobs,
// which group adds up.
type userRow struct {
	id     job.UserID
	credit fairshare.Entitlement // per-generation deficit credit
	seen   int32                 // the last Decide the user had a runnable job at
	fresh  bool                  // the user starts afresh this round: no job row of theirs is kept
	n      int32                 // runnable jobs
	lo, hi int32                 // the user's slots in FairPolicy.lay; last round's in next until group lays them out

	// The round's, set by group and Decide.
	gpus       int                         // runnable gang width: the user's demand
	jobTickets float64                     // the user's tickets split over their jobs; 0 without tickets
	vals       [gpu.NumGenerations]float64 // profiled value per GPU (values); zero when unprofiled
	num, den   [gpu.NumGenerations]float64 // the sums behind vals (addValues)
}

// jobRow is what the policy holds for one runnable job: what Decide
// reads off the job, copied by group, and the books carried across
// rounds. It holds no pointer: the job itself is RoundState.Jobs[at].
type jobRow struct {
	id job.ID

	// The job's stride passes among its user's jobs (pass 1) and in the
	// global backfill (pass 2); known (userKnown, fillKnown) once it has
	// joined, at its first candidacy.
	userPass, fillPass float64

	seen    int32 // the last Decide the job was runnable at
	user    int32 // the user's row
	at      int32 // position in RoundState.Jobs
	gang    int32
	lastMig int32 // round of the job's last generation change

	fits    uint8 // bit g: the job's model fits generation g
	lastGen int8  // the generation the job last ran on, -1 before it first has
	pinned  bool  // the engine refuses to move the job (job.Job.Pinned)

	userKnown, fillKnown bool

	// The round's grant, read back by Executed.
	gen       int8
	granted   bool
	viaCredit bool // funded from credit (refundable), not backfilled
}

// fitsOn reports whether the job's model fits generation g.
func (r *jobRow) fitsOn(g gpu.Generation) bool { return r.fits&(1<<g) != 0 }

// keyed is a position sorted by a key: sortKeyed orders them by key
// ascending, ties in the order given.
type keyed struct {
	key uint64
	at  int32
}

// floatKey maps a float to a key whose order is the float's, -0 and +0
// equal as they compare; a NaN has none.
func floatKey(f float64) uint64 {
	if f == 0 {
		f = 0 // -0 too
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// sortKeyed sorts keys by key, stably, with tmp (as long) as scratch:
// an LSD radix sort a byte at a time that skips a byte every key
// shares, or, for a few keys, where a radix pass's 256 counters would
// cost more than the keys, an insertion sort.
func sortKeyed(keys, tmp []keyed) {
	if len(keys) <= 64 {
		for i := 1; i < len(keys); i++ {
			for j := i; j > 0 && keys[j].key < keys[j-1].key; j-- {
				keys[j], keys[j-1] = keys[j-1], keys[j]
			}
		}
		return
	}
	src, dst := keys, tmp
	for shift := 0; shift < 64; shift += 8 {
		var next [256]int // per byte value: its count, then where its next key goes
		for i := range src {
			next[byte(src[i].key>>shift)]++
		}
		if next[byte(src[0].key>>shift)] == len(src) {
			continue
		}
		sum := 0
		for d, n := range next {
			next[d], sum = sum, sum+n
		}
		for i := range src {
			d := byte(src[i].key >> shift)
			dst[next[d]] = src[i]
			next[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// NewFairPolicy constructs the policy. No FairConfig is invalid, so the
// error is always nil.
func NewFairPolicy(cfg FairConfig) (*FairPolicy, error) {
	return &FairPolicy{cfg: cfg}, nil
}

// MustNewFairPolicy is NewFairPolicy but panics on bad config.
func MustNewFairPolicy(cfg FairConfig) *FairPolicy {
	p, err := NewFairPolicy(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Name implements Policy.
func (p *FairPolicy) Name() string {
	if p.cfg.EnableTrading {
		return "gandiva-fair"
	}
	return "gandiva-fair-no-trade"
}

// Decide implements Policy.
func (p *FairPolicy) Decide(st *RoundState) Decision {
	p.round++
	p.noMigrate = st.MigrationDisabled
	p.group(st)
	users, active := p.users, p.active
	caps := st.CapacityByGen()
	capacity := fairshare.CapacityOf(caps)

	// 1. Fair share, by position in active: user-ID order, the order
	// every float of it is summed in.
	st.Obs.PhaseStart(obs.PhaseWaterfill)
	var hier []float64
	if h := p.cfg.Hierarchy; h != nil {
		ids := p.userIDs[:0]
		for _, u := range active {
			ids = append(ids, users[u].id)
		}
		p.userIDs = ids
		p.tickets = h.FlattenInto(ids, p.tickets)
		hier = p.tickets
	}
	// Failure compensation: repay users' fault deficits off the top
	// of the water-fill, before surplus redistribution, so GPU time
	// lost to faults is restored instead of diluted away.
	compensate := !p.cfg.DisableCompensation && st.Deficit != nil && st.Quantum > 0
	owed := false
	f := &p.fill
	f.resize(len(active))
	for i, at := range active {
		u := &users[at]
		t := 0.0
		if hier != nil {
			t = hier[i]
		} else {
			t = st.Tickets[u.id]
		}
		f.tickets[i], f.demand[i] = t, float64(u.gpus)
		u.jobTickets = fairshare.PerJobTickets(t, int(u.hi-u.lo))
		if compensate {
			if d := st.Deficit[at]; d > 0 {
				f.debt[i] = d / st.Quantum // GPU-seconds owed → GPUs this round
				owed = true
			}
		}
	}
	if owed {
		// Repays — even when the budget grants nothing — tells the engine
		// the policy is compensating, so materialized catch-up may drain
		// the deficit (see Sim.settleCompensation).
		fairshare.WaterFillWithDebt(f.tickets, f.demand, f.debt, capacity.Total(), compMaxShare, f.target, f.reduced, f.shares, f.pending)
	} else {
		fairshare.WaterFill(f.tickets, f.demand, capacity.Total(), f.shares, f.pending)
	}
	st.Obs.PhaseEnd(obs.PhaseWaterfill)

	// 2. Trading. The value vectors, which group added up, also order
	// each user's generation preference in pass 1. A user the
	// water-fill did not reach holds nothing, so trades nothing.
	p.parties = resize(p.parties, len(active))
	for i, at := range active {
		p.parties[i] = trade.Party{User: users[at].id, Values: users[at].vals, Demand: f.demand[i]}
		if sh := f.shares[i]; sh != fairshare.Unreached {
			p.parties[i].Share = capacity.Split(sh)
		}
	}
	var trades []trade.Trade
	if p.cfg.EnableTrading {
		st.Obs.PhaseStart(obs.PhaseTrade)
		trades = trade.Market(p.parties, p.cfg.Trade)
		st.Obs.PhaseEnd(obs.PhaseTrade)
	}

	// 3. Accrue credits, capped per generation, for the users the
	// water-fill reached. A generation the round lacks (all its servers
	// out) accrues nothing and keeps its credit.
	var remaining [gpu.NumGenerations]int
	for g, c := range caps {
		remaining[g] = c
	}
	for i, at := range active {
		if f.shares[i] == fairshare.Unreached {
			continue
		}
		e, credit := &p.parties[i].Share, &users[at].credit
		for g, c := range remaining {
			if c == 0 {
				continue
			}
			credit[g] += e[g]
			if limit := float64(c); credit[g] > limit {
				credit[g] = limit
			}
		}
	}

	// 4. Selection.
	p.granted = room(p.granted, len(p.lay))
	run := room(p.run, len(p.lay))
	schedule := func(r int32, g gpu.Generation, viaCredit bool) {
		js := &p.jobs[r]
		credit := &users[js.user].credit
		gang := int(js.gang)
		js.granted, js.gen, js.viaCredit = true, int8(g), viaCredit
		remaining[g] -= gang
		c := credit[g]
		if viaCredit {
			st.Obs.Explain(js.id, "credit", c, c-float64(gang))
			credit[g] = c - float64(gang)
		} else {
			st.Obs.Explain(js.id, "backfill", c, c)
		}
		if js.lastGen >= 0 && gpu.Generation(js.lastGen) != g {
			js.lastMig = int32(p.round)
		}
		p.granted = append(p.granted, r)
		run = append(run, placement.Request{Job: st.Jobs[js.at], Gen: g})
	}

	// Pass 1 — credit-funded scheduling: per user, walk jobs in
	// gang-aware stride pass order and fund each from the credit of
	// the generation it should run on (previous generation when
	// possible; otherwise the user's most valuable generation, gated
	// by the migration cooldown).
	//
	// Users are served most-credit-first: when capacity is scarce the
	// user who has been shorted longest wins. Ties go by position,
	// which is user-ID order — and once every credit sits at its cap
	// every user ties, so a big gang sorting last can starve (see the
	// type's comment).
	n := len(active)
	serve := resize(p.serve, 2*n)
	for i, at := range active {
		serve[i] = keyed{^floatKey(users[at].credit.Total()), int32(i)} // most credit first
	}
	serve = serve[:n]
	sortKeyed(serve, serve[n:2*n])
	p.serve = serve
	gens := p.gensDesc(caps)
	p.next = resize(p.next, len(p.lay))
	for _, k := range serve {
		u := &users[active[k.at]]
		var prefBuf [gpu.NumGenerations]gpu.Generation
		pref := genPreference(&prefBuf, gens, &u.vals)
		slots := p.lay[u.lo:u.hi]
		order := p.userOrder(u)
		for _, at := range order {
			if g, ok := p.pickGen(&p.jobs[slots[at]], &u.credit, pref, &remaining); ok {
				schedule(slots[at], g, true)
			}
		}
		// Lay this order out next round: by then only the jobs charged
		// for running have moved. (A user without tickets orders nothing.)
		next := p.next[u.lo:u.hi]
		copy(next, slots)
		if len(order) == len(next) {
			for i, at := range order {
				next[i] = slots[at]
			}
		}
	}

	// Pass 2 — work-conserving backfill of leftover capacity, charged
	// against a global stride so no user freeloads persistently. The
	// cooldown still applies: backfill must not cause thrash either.
	ordered := false
	for _, g := range gens {
		if remaining[g] <= 0 {
			continue
		}
		if !ordered {
			p.orderBackfill(st.Jobs)
			ordered = true
		}
		cands, recs := room(p.cands, len(p.fillAt)), room(p.recs, len(p.fillAt))
		for _, r := range p.fillAt {
			// Backfill uses a short cooldown: moving an otherwise idle job
			// onto idle capacity is a one-way move, not thrash, so only
			// back-to-back flapping is blocked.
			js := &p.jobs[r]
			if js.granted || !js.fitsOn(g) || !p.genAllowed(js, g, backfillCooldown) {
				continue
			}
			cands = append(cands, stride.Candidate{ID: js.id, Gang: int(js.gang), Tickets: users[js.user].jobTickets,
				Pass: js.fillPass, Joins: !js.fillKnown})
			recs = append(recs, r)
		}
		p.cands, p.recs = cands, recs
		if len(cands) == 0 {
			continue
		}
		p.order = stride.Select(stride.GangAware, cands, remaining[g], p.order)
		for i := range cands {
			if cands[i].Joins {
				js := &p.jobs[recs[i]]
				js.fillPass, js.fillKnown = cands[i].Pass, true
			}
		}
		for _, at := range p.order {
			schedule(recs[at], g, false)
		}
	}

	if stale := p.run; len(run) < len(stale) {
		clear(stale[len(run):]) // the requests of a longer round before
	}
	p.run = run
	//gflint:ignore retain Decision.Run is good until the next Decide, which rebuilds it in place
	return Decision{Run: run, Trades: trades, Repays: owed}
}

// orderBackfill lays out in p.fillAt the slots of the jobs pass 1 left
// ungranted, for every generation's backfill to filter, by backfill pass
// — a job yet to join first, as it joins at the least pass — ties in
// job-ID order, the order of jobs, the round's runnable jobs. A
// generation's candidates then reach stride.Select as its filter of this
// order, nearly the kernel's own priority order, which its join rule and
// pile merge finish with a few comparisons a candidate; the selection
// does not depend on the order they are offered in.
func (p *FairPolicy) orderBackfill(jobs []*job.Job) {
	keys := room(p.fillKeys, 2*(len(jobs)-len(p.granted)))
	for _, j := range jobs {
		r := int32(j.Slot())
		if js := &p.jobs[r]; !js.granted {
			key := uint64(0)
			if js.fillKnown {
				key = floatKey(js.fillPass)
			}
			keys = append(keys, keyed{key, r})
		}
	}
	n := len(keys)
	sortKeyed(keys, keys[n:2*n])
	p.fillKeys = keys
	fill := room(p.fillAt, n)
	for _, k := range keys {
		fill = append(fill, k.at)
	}
	p.fillAt = fill
}

// group brings the tables up to date with the round's runnable jobs and
// lays the round out. One walk over RoundState.Jobs, in job-ID order,
// finds each user's row and each job's: a user with no runnable job at
// the previous Decide, or whose row is another user's, starts afresh,
// and so does a job whose slot's row is not its own from the previous
// Decide; the walk adds up each user's jobs, gang width and value sums
// in that order. The active users are then laid out in user-ID order,
// each user's kept jobs in last round's pass 1 order (next), then the
// jobs new to the policy in ID order.
func (p *FairPolicy) group(st *RoundState) {
	jobs, now := st.Jobs, int32(p.round)
	gens := st.Cluster.GensPresent()
	// Room for the slots of this many jobs, and the positions of every
	// user with tickets, which the engine's users all have, at once; the
	// walk grows the tables further only for a slot past them.
	p.jobs, p.users = grow(p.jobs, len(jobs)), grow(p.users, len(st.Tickets))
	p.added = room(p.added, len(jobs))
	for k, j := range jobs {
		u := j.UserAt()
		if u >= len(p.users) {
			p.users = grow(p.users, u+1)
		}
		us := &p.users[u]
		if us.seen != now { // the user's first job this round
			if us.seen != now-1 || us.id != j.User {
				*us = userRow{id: j.User, fresh: true}
			} else {
				us.fresh = false
			}
			us.seen, us.n, us.gpus = now, 0, 0
			us.num, us.den = [gpu.NumGenerations]float64{}, [gpu.NumGenerations]float64{}
		}
		us.n++
		us.gpus += j.Gang
		us.addValues(st.Prof.Estimates(j), gens, j.Gang)

		at := j.Slot()
		if at >= len(p.jobs) {
			p.jobs = grow(p.jobs, at+1)
		}
		r := &p.jobs[at]
		if us.fresh || r.seen != now-1 || r.id != j.ID || r.user != int32(u) {
			p.added = append(p.added, int32(k)) // its row is made once the kept ones are laid out
			continue
		}
		r.seen, r.at, r.lastGen, r.pinned, r.granted = now, int32(k), lastGenOf(j), j.Pinned(), false
	}

	// The active users, each given room for their rows and their kept
	// rows laid out: a slot of last round's order whose row the walk did
	// not stamp holds a job that is gone.
	active := room(p.active, len(p.users))
	lay := resize(p.lay, len(jobs))
	lo := int32(0)
	for u := range p.users {
		us := &p.users[u]
		if us.seen != now {
			continue
		}
		active = append(active, int32(u))
		last := p.next[us.lo:us.hi]
		us.lo, us.hi = lo, lo
		for _, at := range last {
			if p.jobs[at].seen == now {
				lay[us.hi] = at
				us.hi++
			}
		}
		us.vals = us.values()
		lo += us.n
	}
	for _, k := range p.added {
		j := jobs[k]
		u := j.UserAt()
		us := &p.users[u]
		r := &p.jobs[j.Slot()]
		*r = jobRow{id: j.ID, seen: now, user: int32(u), at: k, gang: int32(j.Gang), lastGen: lastGenOf(j), pinned: j.Pinned()}
		for g := range gpu.NumGenerations {
			if j.Perf.FitsOn(gpu.Generation(g)) {
				r.fits |= 1 << g
			}
		}
		lay[us.hi] = int32(j.Slot())
		us.hi++
	}
	p.active, p.lay = active, lay
}

// lastGenOf is the generation j last ran on, -1 before it first has.
func lastGenOf(j *job.Job) int8 {
	if g, ok := j.LastGen(); ok {
		return int8(g)
	}
	return -1
}

// userOrder is pass 1's stride order among a user's jobs, as positions
// from u.lo in lay. A job new to the policy joins here.
//
//gflint:noretain
func (p *FairPolicy) userOrder(u *userRow) []int32 {
	slots := p.lay[u.lo:u.hi]
	cands := p.cands[:0]
	for _, at := range slots {
		js := &p.jobs[at]
		cands = append(cands, stride.Candidate{ID: js.id, Gang: int(js.gang), Tickets: u.jobTickets,
			Pass: js.userPass, Joins: !js.userKnown})
	}
	p.cands = cands
	p.order = stride.Order(cands, p.order)
	for i := range cands {
		if cands[i].Joins {
			js := &p.jobs[slots[i]]
			js.userPass, js.userKnown = cands[i].Pass, true
		}
	}
	return p.order
}

// pickGen chooses the generation to fund a job from its user's credit.
// Preference order: the job's previous generation (no migration), then
// the user's preferred generations, each requiring the job to fit,
// sufficient credit, remaining capacity, and the migration cooldown for
// generation changes.
func (p *FairPolicy) pickGen(js *jobRow, credit *fairshare.Entitlement, pref []gpu.Generation, remaining *[gpu.NumGenerations]int) (gpu.Generation, bool) {
	gang := int(js.gang)
	try := func(g gpu.Generation) bool {
		return js.fitsOn(g) && remaining[g] >= gang &&
			credit[g] >= float64(gang)-1e-9 &&
			p.genAllowed(js, g, migrationCooldown)
	}
	if js.lastGen >= 0 && try(gpu.Generation(js.lastGen)) {
		return gpu.Generation(js.lastGen), true
	}
	for _, g := range pref {
		if try(g) {
			return g, true
		}
	}
	return 0, false
}

// migrationCooldown is the minimum number of rounds between generation
// changes for one job, damping migration thrash when a user's
// entitlement straddles generations; backfillCooldown is the reduced
// cooldown used in the backfill pass (see Decide).
const (
	migrationCooldown = 10
	backfillCooldown  = 2
)

// genAllowed enforces the migration cooldown: a job may change
// generation only if it has not changed within the last cooldown
// rounds.
func (p *FairPolicy) genAllowed(js *jobRow, g gpu.Generation, cooldown int) bool {
	if js.lastGen < 0 || gpu.Generation(js.lastGen) == g {
		return true
	}
	if p.noMigrate || js.pinned {
		return false
	}
	return p.round-int(js.lastMig) >= cooldown
}

// Executed implements Policy: charge stride pass for what actually
// ran and refund credits for capacity not consumed (unplaced jobs,
// early finishers). Grants are settled in the order Decide made them:
// two refunds into one credit are a float sum, and its order must not
// vary between runs. A job that finished is settled no further.
func (p *FairPolicy) Executed(rep *ExecReport) {
	ranAt := resize(p.ranAt, len(p.granted))
	clear(ranAt)
	for k := range rep.Ran {
		ranAt[rep.Ran[k].Req] = int32(k) + 1
	}
	p.ranAt = ranAt
	for i, r := range p.granted {
		if p.run[i].Job.Finished() {
			continue
		}
		js := &p.jobs[r]
		u := &p.users[js.user]
		gang := float64(js.gang)
		if ranAt[i] == 0 {
			// Fragmentation left it unplaced: full refund.
			if js.viaCredit {
				u.credit[gpu.Generation(js.gen)] += gang
			}
			continue
		}
		if u.jobTickets > 0 {
			// Every granted job joined its user's order in pass 1; not
			// every one has joined the backfill.
			res := gang * rep.Ran[ranAt[i]-1].OccupiedSecs
			js.userPass = stride.Charge(js.id, js.userPass, res, u.jobTickets)
			if js.fillKnown {
				js.fillPass = stride.Charge(js.id, js.fillPass, res, u.jobTickets)
			}
		}
	}
	p.granted = p.granted[:0]
}

// JobFinished implements Policy: Executed skips a finished job's grant,
// and the next round's group no longer finds its row.
func (p *FairPolicy) JobFinished(job.ID) {}

// addValues adds one job to the sums behind its user's trading value
// vector (values): gang-weighted speedup of each generation over the
// oldest generation the job has an estimate on. A job without estimates
// adds nothing.
func (s *userRow) addValues(est *profiler.Estimates, gens []gpu.Generation, gang int) {
	if est == nil {
		return
	}
	base := gpu.Generation(-1)
	var baseRate float64
	for _, g := range gens {
		if r, ok := est.Rate(g); ok {
			base, baseRate = g, r
			break
		}
	}
	if base < 0 || baseRate <= 0 {
		return
	}
	w := float64(gang)
	for _, g := range gens {
		if r, ok := est.Rate(g); ok {
			s.num[g] += w * r / baseRate
			s.den[g] += w
		}
	}
}

// values is a user's trading value vector: the gang-weighted mean
// speedup per generation across the user's runnable
// jobs, summed in job-ID order; all zero while no job has an estimate,
// which trades nothing.
func (s *userRow) values() (v [gpu.NumGenerations]float64) {
	for g := range v {
		if s.den[g] > 0 {
			v[g] = s.num[g] / s.den[g]
		}
	}
	return v
}

// genPreference orders the round's generations, gens (gensDesc, newest
// first), for a user into buf: profiled value per GPU (the user's value
// vector) descending — run where your jobs gain most — newest first on
// ties.
func genPreference(buf *[gpu.NumGenerations]gpu.Generation, gens []gpu.Generation, v *[gpu.NumGenerations]float64) []gpu.Generation {
	pref := buf[:len(gens)]
	for n, g := range gens {
		i := n
		for ; i > 0 && v[g] > v[pref[i-1]]; i-- {
			pref[i] = pref[i-1]
		}
		pref[i] = g
	}
	return pref
}

// gensDesc returns the round's generations — the keys of caps — newest
// first, in the policy's scratch.
//
//gflint:noretain
func (p *FairPolicy) gensDesc(caps map[gpu.Generation]int) []gpu.Generation {
	gens := p.gensBuf[:0]
	for g := gpu.Generation(gpu.NumGenerations - 1); g >= 0; g-- {
		if _, ok := caps[g]; ok {
			gens = append(gens, g)
		}
	}
	return gens
}
