package core

import (
	"cmp"
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
// The policy's state is a few dense tables by position (the layout of
// Gavel's jobs × accelerator-type matrix): a row per active user and
// one per runnable job, laid out afresh each round by one walk over
// RoundState.Jobs (group), after which Decide reads rows, never a
// *job.Job. Each table and its spare half grow to their high-water
// mark and are reused, so users and jobs that come and go cost no
// allocation once the policy has held as many at once as it will.
type FairPolicy struct {
	cfg FairConfig

	// The round's tables, laid out by group. users holds one row per
	// user with runnable jobs, in user-ID order; jobs one row per
	// runnable job, user-major: user u's rows are
	// jobs[users[u].lo:users[u].hi], in the stride order last round's
	// pass 1 left them in (next), each job new to the policy after them
	// in ID order. byID[k] is RoundState.Jobs[k]'s entry: the jobs in
	// job-ID order, for the next round's walk to merge with and the
	// backfill to walk. A row is made at a job's first sight and dropped
	// once the job is no longer runnable, a user's once they have no
	// runnable job left: a user who returns starts afresh.
	users []userRow
	jobs  []jobRow
	byID  []idEntry
	next  []int32 // pass 1's order of each user's rows, as rows: what the next round lays them out in

	round     int
	noMigrate bool

	// The tables' spare halves: group lays the round out into them from
	// the live ones and swaps the two.
	spareUsers []userRow
	spareJobs  []jobRow
	spareByID  []idEntry

	// group's scratch. A user is known to the walk by a key: their row's
	// position last round, or, for a user new to the policy, one past
	// the last row's in order of first sight.
	sums  []userSums  //gflint:noretain what the walk adds up per user key
	keys  []int32     //gflint:noretain the user key of RoundState.Jobs[k]
	newAt []int32     //gflint:noretain by last round's row: where in RoundState.Jobs its job is, -1 if it is not runnable
	added []int32     //gflint:noretain the positions in RoundState.Jobs of jobs new to the policy
	fresh []freshUser //gflint:noretain the round's users new to the policy, in ID order
	remap []int32     //gflint:noretain a user key's row

	// Decide's scratch, kept across rounds and rewritten, never rebuilt.
	// fill, parties and tickets are by position in users.
	fill     waterFill                          //gflint:noretain the round's water-fill
	tickets  []float64                          //gflint:noretain the round's hierarchical tickets
	userIDs  []job.UserID                       //gflint:noretain the round's users' IDs, for the hierarchy
	parties  []trade.Party                      //gflint:noretain the round's entitlements, value vectors and demands, as trade.Market takes them
	serve    []keyed                            //gflint:noretain pass 1's serve order, and room as long for its sort
	granted  []int32                            //gflint:noretain the round's grants as rows, in grant order (grant i is Decision.Run[i]), consumed by Executed
	run      []placement.Request                // the round's Decision.Run, rebuilt in place by the next Decide
	ranAt    []int32                            //gflint:noretain Executed's: one past where in ExecReport.Ran grant i's answer is, 0 if it did not run
	cands    []stride.Candidate                 //gflint:noretain one user's (pass 1) or one generation's (pass 2) candidates
	recs     []int32                            //gflint:noretain the rows of cands, by position
	order    []int32                            //gflint:noretain the stride kernel's positions in cands
	fillAt   []int32                            //gflint:noretain pass 2's candidate rows, by backfill pass
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

// userRow is what the policy holds for one user with runnable jobs: the
// credit that lives as long as the user stays active, and the round's
// view of their jobs, which group adds up.
type userRow struct {
	id     job.UserID
	credit fairshare.Entitlement // per-generation deficit credit
	lo, hi int32                 // the user's rows in FairPolicy.jobs

	// The round's, set by group and Decide.
	gpus       int                         // runnable gang width: the user's demand
	userAt     int32                       // where RoundState.Deficit holds the user's debt, read off their first runnable job
	jobTickets float64                     // the user's tickets split over their jobs; 0 without tickets
	vals       [gpu.NumGenerations]float64 // profiled value per GPU (userSums.values); zero when unprofiled
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

// idEntry is one runnable job in job-ID order: what the next round's
// walk merges the runnable jobs with, and where the job's rows are.
type idEntry struct {
	id      job.ID
	row     int32 // the job's row
	user    int32 // its user's row
	lastGen int8  // as the walk read it off the job, for the layout
	pinned  bool
}

// userSums is what group's walk adds up for one user, in job-ID order:
// their runnable jobs and gang width, where their first job says they
// are, and the sums behind their value vector (values).
type userSums struct {
	n, gpus  int
	userAt   int32
	num, den [gpu.NumGenerations]float64
}

// freshUser is a user new to the policy this round and their key.
type freshUser struct {
	id  job.UserID
	key int32
}

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
	users := p.users
	caps := st.CapacityByGen()
	capacity := fairshare.CapacityOf(caps)

	// 1. Fair share, by position in users: user-ID order, the order
	// every float of it is summed in.
	st.Obs.PhaseStart(obs.PhaseWaterfill)
	var hier []float64
	if h := p.cfg.Hierarchy; h != nil {
		ids := p.userIDs[:0]
		for i := range users {
			ids = append(ids, users[i].id)
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
	f.resize(len(users))
	for i := range users {
		u := &users[i]
		t := 0.0
		if hier != nil {
			t = hier[i]
		} else {
			t = st.Tickets[u.id]
		}
		f.tickets[i], f.demand[i] = t, float64(u.gpus)
		u.jobTickets = fairshare.PerJobTickets(t, int(u.hi-u.lo))
		if compensate {
			if d := st.Deficit[u.userAt]; d > 0 {
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
	p.parties = resize(p.parties, len(users))
	for i := range users {
		p.parties[i] = trade.Party{User: users[i].id, Values: users[i].vals, Demand: f.demand[i]}
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
	for i := range users {
		if f.shares[i] == fairshare.Unreached {
			continue
		}
		e, credit := &p.parties[i].Share, &users[i].credit
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
	p.granted = room(p.granted, len(p.jobs))
	run := room(p.run, len(p.jobs))
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
	serve := resize(p.serve, 2*len(users))
	for i := range users {
		serve[i] = keyed{^floatKey(users[i].credit.Total()), int32(i)} // most credit first
	}
	serve = serve[:len(users)]
	sortKeyed(serve, serve[len(users):2*len(users)])
	p.serve = serve
	gens := p.gensDesc(caps)
	p.next = resize(p.next, len(p.jobs))
	for _, k := range serve {
		u := &users[k.at]
		var prefBuf [gpu.NumGenerations]gpu.Generation
		pref := genPreference(&prefBuf, gens, &u.vals)
		order := p.userOrder(u)
		for _, at := range order {
			r := u.lo + at
			if g, ok := p.pickGen(&p.jobs[r], &u.credit, pref, &remaining); ok {
				schedule(r, g, true)
			}
		}
		// Lay this order out next round: by then only the jobs charged
		// for running have moved. (A user without tickets orders nothing.)
		next := p.next[u.lo:u.hi]
		for i := range next {
			next[i] = u.lo + int32(i)
		}
		if len(order) == len(next) {
			for i, at := range order {
				next[i] = u.lo + at
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
			p.orderBackfill()
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

// orderBackfill lays out in p.fillAt the rows pass 1 left ungranted,
// for every generation's backfill to filter, by backfill pass — a job
// yet to join first, as it joins at the least pass — ties in job-ID
// order. A generation's candidates then reach stride.Select as its
// filter of this order, nearly the kernel's own priority order, which
// its join rule and pile merge finish with a few comparisons a
// candidate; the selection does not depend on the order they are
// offered in.
func (p *FairPolicy) orderBackfill() {
	keys := room(p.fillKeys, 2*(len(p.jobs)-len(p.granted)))
	for k := range p.byID {
		r := p.byID[k].row
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

// group lays the round out: one walk over the round's runnable jobs,
// which are in job-ID order, merges them with last round's rows by ID
// (a job keeps its row and its books, one new to the policy gets a fresh
// row) and adds up each user's jobs, gang width and value sums in that
// order; the users table is then exactly the users that have any, and
// the jobs table their rows, user-major. A user left with none loses
// their books.
//
// A row whose job is another *job.Job of the same ID and user — the
// engine was rebuilt from a checkpoint (Restore) with this policy — keeps
// its books: the user's credit, the stride passes and the last
// generation change.
func (p *FairPolicy) group(st *RoundState) {
	jobs := st.Jobs
	prevUsers, prevRows, prev := p.users, p.jobs, p.byID
	byID := resize(p.spareByID, len(jobs))
	// The tables are sized up front to what the round can need (room),
	// but for sums and fresh, which userKey extends, doubling them when
	// full.
	p.keys, p.newAt = resize(p.keys, len(jobs)), resize(p.newAt, len(prevRows))
	p.added, p.fresh = room(p.added, len(jobs)), p.fresh[:0]
	p.sums = resize(p.sums, len(prevUsers))
	clear(p.sums)
	for r := range p.newAt {
		p.newAt[r] = -1
	}
	gens := st.Cluster.GensPresent()
	q := 0
	for k, j := range jobs {
		e := &byID[k]
		*e = idEntry{id: j.ID, lastGen: lastGenOf(j), pinned: j.Pinned()}
		for q < len(prev) && prev[q].id < j.ID {
			q++
		}
		key := int32(-1)
		if q < len(prev) && prev[q].id == j.ID {
			if prevUsers[prev[q].user].id == j.User {
				key = prev[q].user
				p.newAt[prev[q].row] = int32(k)
			}
			q++
		}
		if key < 0 {
			key = p.userKey(j)
			p.added = append(p.added, int32(k))
		}
		p.keys[k] = key
		s := &p.sums[key]
		if s.n == 0 {
			s.userAt = int32(j.UserAt())
		}
		s.n++
		s.gpus += j.Gang
		s.addValues(st.Prof.Estimates(j), gens, j.Gang)
	}

	// The users, last round's and the fresh ones merged by ID, each
	// given room for their rows.
	users := room(p.spareUsers, len(prevUsers)+len(p.fresh))
	p.remap = resize(p.remap, len(p.sums))
	lo := int32(0)
	for i, f := 0, 0; i < len(prevUsers) || f < len(p.fresh); {
		var key int32
		var credit fairshare.Entitlement
		var id job.UserID
		if f == len(p.fresh) || i < len(prevUsers) && prevUsers[i].id < p.fresh[f].id {
			key, id, credit = int32(i), prevUsers[i].id, prevUsers[i].credit
			i++
		} else {
			key, id = p.fresh[f].key, p.fresh[f].id
			f++
		}
		s := &p.sums[key]
		if s.n == 0 {
			continue // left: their books go
		}
		p.remap[key] = int32(len(users))
		users = append(users, userRow{id: id, credit: credit, lo: lo, hi: lo, gpus: s.gpus, userAt: s.userAt, vals: s.values()})
		lo += int32(s.n)
	}

	// The rows: a staying user's in last round's stride order, then each
	// job new to the policy in ID order.
	rows := resize(p.spareJobs, len(jobs))
	place := func(js *jobRow, k, key int32) {
		u := p.remap[key]
		at := users[u].hi
		users[u].hi++
		e := &byID[k]
		rows[at] = *js
		r := &rows[at]
		r.user, r.at, r.lastGen, r.pinned, r.granted = u, k, e.lastGen, e.pinned, false
		e.row, e.user = at, u
	}
	for key := range prevUsers {
		if p.sums[key].n == 0 {
			continue
		}
		for _, r := range p.next[prevUsers[key].lo:prevUsers[key].hi] {
			if k := p.newAt[r]; k >= 0 {
				place(&prevRows[r], k, int32(key))
			}
		}
	}
	for _, k := range p.added {
		j := jobs[k]
		js := jobRow{id: j.ID, gang: int32(j.Gang)}
		for g := range gpu.NumGenerations {
			if j.Perf.FitsOn(gpu.Generation(g)) {
				js.fits |= 1 << g
			}
		}
		place(&js, k, p.keys[k])
	}

	//gflint:ignore retain each table and its spare half are one double buffer: each round's layout reads one and fills the other
	p.users, p.jobs, p.byID = users, rows, byID
	p.spareUsers, p.spareJobs, p.spareByID = prevUsers[:0], prevRows[:0], prev[:0]
}

// userKey is the walk's key for the user of a job that has no row:
// their row's position last round if they had one, else their fresh
// key, made at first sight.
func (p *FairPolicy) userKey(j *job.Job) int32 {
	u := j.User
	if i, ok := slices.BinarySearchFunc(p.users, u, func(us userRow, u job.UserID) int { return cmp.Compare(us.id, u) }); ok {
		return int32(i)
	}
	i, ok := slices.BinarySearchFunc(p.fresh, u, func(f freshUser, u job.UserID) int { return cmp.Compare(f.id, u) })
	if !ok {
		if len(p.fresh) == cap(p.fresh) { // doubled, not by append's quarter
			p.fresh = slices.Grow(p.fresh, max(len(p.fresh), 8))
		}
		if len(p.sums) == cap(p.sums) {
			p.sums = slices.Grow(p.sums, max(len(p.sums), 8))
		}
		p.fresh = slices.Insert(p.fresh, i, freshUser{id: u, key: int32(len(p.sums))})
		p.sums = append(p.sums, userSums{})
	}
	return p.fresh[i].key
}

// lastGenOf is the generation j last ran on, -1 before it first has.
func lastGenOf(j *job.Job) int8 {
	if g, ok := j.LastGen(); ok {
		return int8(g)
	}
	return -1
}

// userOrder is pass 1's stride order among a user's rows, as positions
// from u.lo. A job new to the policy joins here.
//
//gflint:noretain
func (p *FairPolicy) userOrder(u *userRow) []int32 {
	rows := p.jobs[u.lo:u.hi]
	cands := p.cands[:0]
	for i := range rows {
		js := &rows[i]
		cands = append(cands, stride.Candidate{ID: js.id, Gang: int(js.gang), Tickets: u.jobTickets,
			Pass: js.userPass, Joins: !js.userKnown})
	}
	p.cands = cands
	p.order = stride.Order(cands, p.order)
	for i := range cands {
		if cands[i].Joins {
			rows[i].userPass, rows[i].userKnown = cands[i].Pass, true
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
// vary between runs.
func (p *FairPolicy) Executed(rep *ExecReport) {
	ranAt := resize(p.ranAt, len(p.granted))
	clear(ranAt)
	for k := range rep.Ran {
		ranAt[rep.Ran[k].Req] = int32(k) + 1
	}
	p.ranAt = ranAt
	for i, r := range p.granted {
		js := &p.jobs[r]
		if !js.granted {
			continue // finished since Decide: its books are gone
		}
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

// JobFinished implements Policy: Executed skips the grant of the job,
// found by binary search over the rows in ID order, and the next round's
// group drops its row with the job.
func (p *FairPolicy) JobFinished(id job.ID) {
	if k, ok := slices.BinarySearchFunc(p.byID, id, func(e idEntry, id job.ID) int { return cmp.Compare(e.id, id) }); ok {
		p.jobs[p.byID[k].row].granted = false
	}
}

// addValues adds one job to the sums behind its user's trading value
// vector (values): gang-weighted speedup of each generation over the
// oldest generation the job has an estimate on. A job without estimates
// adds nothing.
func (s *userSums) addValues(est *profiler.Estimates, gens []gpu.Generation, gang int) {
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
func (s *userSums) values() (v [gpu.NumGenerations]float64) {
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
