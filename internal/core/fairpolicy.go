package core

import (
	"cmp"
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
type FairPolicy struct {
	cfg FairConfig

	// users holds one record per user with runnable jobs, in user-ID
	// order, and all one per runnable job, in job-ID order. Decide's
	// group merges the round's jobs into them: a record is made at a
	// job's first sight and dropped once the job is no longer runnable,
	// a user's when they have no runnable job left. During a round all[i]
	// is the record of RoundState.Jobs[i], and every per-user and per-job
	// computation walks records by position.
	users     []*userState
	all       []*jobState
	jobBlock  []jobState   // records not yet handed out (see jobState)
	userBlock []userState  // user records not yet handed out (see userState)
	listBlock []*jobState  // room not yet carved into new users' lists
	idle      []*userState // the records of users who have left, reset, handed out first

	round     int
	noMigrate bool // engine refuses migrations this run

	// Decide's scratch, kept across rounds and cleared, never rebuilt.
	// fill and parties are by position in users.
	spare   []*jobState                        // all's other half: group merges into it, then the two swap
	active  []*userState                       //gflint:noretain the round's users in pass 1's serve order
	fill    waterFill                          //gflint:noretain the round's water-fill
	parties []trade.Party                      //gflint:noretain the round's entitlements, value vectors and demands, as trade.Market takes them
	granted []*jobState                        //gflint:noretain the round's grants in grant order (grant i is Decision.Run[i]), consumed by Executed
	run     []placement.Request                // the round's Decision.Run, rebuilt in place by the next Decide
	ranAt   []int32                            //gflint:noretain Executed's: one past where in ExecReport.Ran grant i's answer is, 0 if it did not run
	cands   []stride.Candidate                 //gflint:noretain one user's (pass 1) or one generation's (pass 2) candidates
	recs    []*jobState                        //gflint:noretain the records of cands, by position (pass 2), or one user's new stride order (pass 1)
	order   []int32                            //gflint:noretain the stride kernel's positions in cands
	gensBuf [gpu.NumGenerations]gpu.Generation // the round's generations, newest first
	prefBuf []gpu.Generation                   //gflint:noretain one user's generation preference
}

// waterFill holds the fairshare kernels' inputs, outputs and scratch,
// one element per user.
type waterFill struct {
	tickets, demand, shares []float64
	debt                    []float64 // GPUs owed this round
	target, reduced         []float64 // the debt fill's scratch
}

// resize makes every slice n long, keeping the storage; debt is zeroed.
func (f *waterFill) resize(n int) {
	grow := func(s []float64) []float64 { return slices.Grow(s[:0], n)[:n] }
	f.tickets, f.demand, f.shares, f.debt = grow(f.tickets), grow(f.demand), grow(f.shares), grow(f.debt)
	f.target, f.reduced = grow(f.target), grow(f.reduced)
	clear(f.debt)
}

// userState is what the policy holds for one user with runnable jobs:
// the books that live as long as the user stays active, and the
// round's view of their jobs. Records are handed out of blocks of
// userBlockSize, and a user's order and jobs lists start in room carved
// from a block beside them, listCarve entries each. A user who leaves
// loses their books, but not the record: it is reset to a fresh one,
// its lists emptied and cleared, and handed to the next user the policy
// meets, so users who come and go cost no allocation once the policy
// has met as many at once as it will.
type userState struct {
	id     job.UserID
	credit fairshare.Entitlement // per-generation deficit credit

	// order is the user's jobs in last round's stride order, each new job
	// appended at first sight: what pass 1 offers the stride kernel, which
	// finds it a few sorted runs to merge. Only the order of offer, never
	// the outcome, depends on it.
	order []*jobState

	// The round's, set by Decide.
	round      int                         // the round jobs was grouped in
	at         int                         // position in FairPolicy.users
	jobs       []*jobState                 // runnable jobs, in ID order
	jobTickets float64                     // the user's tickets split over those jobs; 0 without tickets
	vals       [gpu.NumGenerations]float64 // profiled value per GPU; zero when unprofiled
	serveKey   float64                     // total credit when the serve order was drawn
}

// jobState is what the policy holds for one runnable job. Records are
// handed out of blocks of jobBlockSize — a first round that meets ten
// thousand jobs makes a few hundred allocations, not ten thousand — and
// a block is collected once every job in it has finished and no user's
// list holds its records (a departed user's lists are cleared).
type jobState struct {
	user    *userState
	job     *job.Job
	round   int // the last round group found the job runnable in
	lastMig int // round of the job's last generation change

	// The job's stride passes among its user's jobs (pass 1) and in the
	// global backfill (pass 2); known once it has joined, at its first
	// candidacy.
	userPass, fillPass   float64
	userKnown, fillKnown bool

	// The round's grant, read back by Executed.
	gen       gpu.Generation
	granted   bool
	viaCredit bool // funded from credit (refundable), not backfilled
}

// Records and list room come in blocks. listCarve is the room a new
// user's order and jobs lists each start with, carved from listBlock: 8
// holds what a user of a multi-tenant stream has runnable at once (on
// gfperf's tenant-scale, 2,000 users of 25 jobs, a carve of 4 moved
// lists to the heap 709 times a run, 10 allocations a round), for 64 B
// more per user record than 4. A list that outgrows it moves
// (appendList).
const (
	jobBlockSize  = 64
	userBlockSize = 64
	listCarve     = 8
)

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
	p.group(st.Jobs)
	caps := st.CapacityByGen()
	capacity := fairshare.CapacityOf(caps)

	// 1. Fair share, by position in p.users: user-ID order, the order
	// every float of it is summed in.
	st.Obs.PhaseStart(obs.PhaseWaterfill)
	tickets := st.Tickets
	if p.cfg.Hierarchy != nil {
		ids := make([]job.UserID, len(p.users))
		for i, us := range p.users {
			ids[i] = us.id
		}
		tickets = p.cfg.Hierarchy.Flatten(ids)
	}
	// Failure compensation: repay users' fault deficits off the top
	// of the water-fill, before surplus redistribution, so GPU time
	// lost to faults is restored instead of diluted away. A user's debt
	// is read through their first runnable job.
	compensate := !p.cfg.DisableCompensation && st.Deficit != nil && st.Quantum > 0
	owed := false
	f := &p.fill
	f.resize(len(p.users))
	for i, us := range p.users {
		gpus := 0
		for _, js := range us.jobs {
			gpus += js.job.Gang
		}
		us.at = i
		f.tickets[i], f.demand[i] = tickets[us.id], float64(gpus)
		us.jobTickets = fairshare.PerJobTickets(f.tickets[i], len(us.jobs))
		if compensate {
			if d := st.Deficit[us.jobs[0].job.UserAt()]; d > 0 {
				f.debt[i] = d / st.Quantum // GPU-seconds owed → GPUs this round
				owed = true
			}
		}
	}
	if owed {
		// Repays — even when the budget grants nothing — tells the engine
		// the policy is compensating, so materialized catch-up may drain
		// the deficit (see Sim.settleCompensation).
		fairshare.WaterFillWithDebt(f.tickets, f.demand, f.debt, capacity.Total(), compMaxShare, f.target, f.reduced, f.shares)
	} else {
		fairshare.WaterFill(f.tickets, f.demand, capacity.Total(), f.shares)
	}
	st.Obs.PhaseEnd(obs.PhaseWaterfill)

	// 2. Trading. The value vectors also order each user's generation
	// preference in pass 1, so they are computed once, trading or not.
	// A user the water-fill did not reach holds nothing, so trades nothing.
	p.parties = slices.Grow(p.parties[:0], len(p.users))[:len(p.users)]
	present := st.Cluster.GensPresent()
	for i, us := range p.users {
		us.vals = userValues(st.Prof, present, us.jobs)
		p.parties[i] = trade.Party{User: us.id, Values: us.vals, Demand: f.demand[i]}
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
	for i, us := range p.users {
		if f.shares[i] == fairshare.Unreached {
			continue
		}
		e := &p.parties[i].Share
		for g, c := range remaining {
			if c == 0 {
				continue
			}
			us.credit[g] += e[g]
			if limit := float64(c); us.credit[g] > limit {
				us.credit[g] = limit
			}
		}
	}

	// 4. Selection.
	p.granted = p.granted[:0]
	run := p.run[:0]
	schedule := func(js *jobState, g gpu.Generation, viaCredit bool) {
		j, us := js.job, js.user
		js.granted, js.gen, js.viaCredit = true, g, viaCredit
		remaining[g] -= j.Gang
		c := us.credit[g]
		if viaCredit {
			st.Obs.Explain(j.ID, "credit", c, c-float64(j.Gang))
			us.credit[g] = c - float64(j.Gang)
		} else {
			st.Obs.Explain(j.ID, "backfill", c, c)
		}
		if prev, ok := j.LastGen(); ok && prev != g {
			js.lastMig = p.round
		}
		p.granted = append(p.granted, js)
		run = append(run, placement.Request{Job: j, Gen: g})
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
	p.active = append(p.active[:0], p.users...)
	for _, us := range p.active {
		us.serveKey = us.credit.Total()
	}
	slices.SortFunc(p.active, func(a, b *userState) int {
		switch {
		case a.serveKey > b.serveKey:
			return -1
		case a.serveKey < b.serveKey:
			return 1
		default:
			return cmp.Compare(a.at, b.at)
		}
	})
	gens := p.gensDesc(caps)
	for _, us := range p.active {
		pref := p.genPreference(gens, us.vals)
		order := p.userOrder(us)
		for _, at := range order {
			js := us.order[at]
			if g, ok := p.pickGen(js, pref, &remaining); ok {
				schedule(js, g, true)
			}
		}
		// Offer this order next round: by then only the jobs charged for
		// running have moved. (A user without tickets orders nothing.)
		if len(order) == len(us.order) {
			recs := p.recs[:0]
			for _, at := range order {
				recs = append(recs, us.order[at])
			}
			copy(us.order, recs)
			p.recs = recs
		}
	}

	// Pass 2 — work-conserving backfill of leftover capacity, charged
	// against a global stride so no user freeloads persistently. The
	// cooldown still applies: backfill must not cause thrash either.
	// Select orders its candidates itself, so the order they are
	// offered in does not matter.
	for _, g := range gens {
		if remaining[g] <= 0 {
			continue
		}
		cands, recs := p.cands[:0], p.recs[:0]
		for _, js := range p.all {
			// Backfill uses a short cooldown: moving an otherwise idle job
			// onto idle capacity is a one-way move, not thrash, so only
			// back-to-back flapping is blocked.
			if js.granted || !js.job.Perf.FitsOn(g) || !p.genAllowed(js, g, backfillCooldown) {
				continue
			}
			cands = append(cands, stride.Candidate{ID: js.job.ID, Gang: js.job.Gang, Tickets: js.user.jobTickets,
				Pass: js.fillPass, Joins: !js.fillKnown})
			recs = append(recs, js)
		}
		p.cands, p.recs = cands, recs
		if len(cands) == 0 {
			continue
		}
		p.order = stride.Select(stride.GangAware, cands, remaining[g], p.order)
		for i := range cands {
			if cands[i].Joins {
				recs[i].fillPass, recs[i].fillKnown = cands[i].Pass, true
			}
		}
		for _, at := range p.order {
			schedule(recs[at], g, false)
		}
	}

	p.run = run
	//gflint:ignore retain Decision.Run is good until the next Decide, which rebuilds it in place
	return Decision{Run: run, Trades: trades, Repays: owed}
}

// group merges the round's runnable jobs, which are in job-ID order,
// into p.all: a job keeps its record, one new to the policy gets a fresh
// one, and the record of a job no longer runnable drops out. It also
// lists each user's jobs; p.users is then exactly the users that have
// any, and a user left with none loses their books.
//
// A record whose job is another *job.Job of the same ID and user — the
// engine was rebuilt from a checkpoint (Restore) with this policy — is
// rebound to the new one and keeps its books: the user's credit, the
// stride passes and the last generation change.
func (p *FairPolicy) group(jobs []*job.Job) {
	prev, next := p.all, p.spare[:0]
	k := 0
	for _, j := range jobs {
		for k < len(prev) && prev[k].job.ID < j.ID {
			k++
		}
		var js *jobState
		if k < len(prev) && prev[k].job.ID == j.ID {
			if old := prev[k]; old.user.id == j.User {
				js, old.job = old, j
			}
			k++
		}
		if js == nil {
			js = p.newJobState(j)
		}
		js.round, js.granted = p.round, false
		us := js.user
		if us.round != p.round {
			// Cleared, not only emptied: a list that holds fewer jobs
			// than last round must not pin the dropped ones' blocks.
			us.round = p.round
			clear(us.jobs)
			us.jobs = us.jobs[:0]
		}
		us.jobs = appendList(us.jobs, js)
		next = append(next, js)
	}
	clear(prev) // the dropped records go with their blocks
	//gflint:ignore retain all and spare are one double buffer: each round's merge reads one and fills the other
	p.all, p.spare = next, prev[:0]
	users := p.users[:0]
	for _, us := range p.users {
		if us.round == p.round {
			users = append(users, us)
			continue
		}
		us.vacate()
		p.idle = append(p.idle, us)
	}
	clear(p.users[len(users):])
	p.users = users
}

func (p *FairPolicy) newJobState(j *job.Job) *jobState {
	if len(p.jobBlock) == 0 {
		p.jobBlock = make([]jobState, jobBlockSize)
	}
	js := &p.jobBlock[0]
	p.jobBlock = p.jobBlock[1:]
	i, ok := p.userAt(j.User)
	if !ok {
		p.users = slices.Insert(p.users, i, p.newUserState(j.User))
	}
	us := p.users[i]
	js.user, js.job = us, j
	us.order = appendList(us.order, js)
	return js
}

// newUserState hands out a fresh record for user u: a departed user's,
// reset, or one cut from a block, its lists carved from the list block.
func (p *FairPolicy) newUserState(u job.UserID) *userState {
	var us *userState
	if n := len(p.idle); n > 0 {
		us = p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
	} else {
		if len(p.userBlock) == 0 {
			p.userBlock = make([]userState, userBlockSize)
			p.listBlock = make([]*jobState, 2*listCarve*userBlockSize)
		}
		us = &p.userBlock[0]
		p.userBlock = p.userBlock[1:]
		// Full slice expressions: an append past the carve moves the list,
		// it never writes into the next one.
		blk := p.listBlock
		us.order, us.jobs = blk[0:0:listCarve], blk[listCarve:listCarve:2*listCarve]
		p.listBlock = blk[2*listCarve:]
	}
	us.id = u
	return us
}

// vacate resets the record of a user who has left to a fresh
// userState{}, keeping only the storage of its lists, emptied and
// cleared so that they hold no record of a finished job.
func (us *userState) vacate() {
	order, jobs := us.order[:cap(us.order)], us.jobs[:cap(us.jobs)]
	clear(order)
	clear(jobs)
	*us = userState{order: order[:0], jobs: jobs[:0]}
}

// appendList appends js to one of a user's lists. A list that outgrows
// its room moves to the heap; the room it leaves, which may be a carve
// of the list block, is cleared.
func appendList(list []*jobState, js *jobState) []*jobState {
	if len(list) < cap(list) {
		return append(list, js)
	}
	grown := append(list, js)
	clear(list)
	return grown
}

// userOrder is pass 1's stride order among one user's jobs, as
// positions in us.order, which it first compacts to the round's
// runnable jobs. A job new to the policy joins here.
//
//gflint:noretain
func (p *FairPolicy) userOrder(us *userState) []int32 {
	live, cands := us.order[:0], p.cands[:0]
	for _, js := range us.order {
		if js.round != p.round {
			continue // no longer runnable
		}
		live = append(live, js)
		cands = append(cands, stride.Candidate{ID: js.job.ID, Gang: js.job.Gang, Tickets: us.jobTickets,
			Pass: js.userPass, Joins: !js.userKnown})
	}
	clear(us.order[len(live):])
	us.order, p.cands = live, cands
	p.order = stride.Order(cands, p.order)
	for i := range cands {
		if cands[i].Joins {
			live[i].userPass, live[i].userKnown = cands[i].Pass, true
		}
	}
	return p.order
}

// userAt finds a user's record by binary search: its position in
// p.users, or where it would go.
func (p *FairPolicy) userAt(u job.UserID) (int, bool) {
	return slices.BinarySearchFunc(p.users, u, func(us *userState, u job.UserID) int { return cmp.Compare(us.id, u) })
}

// pickGen chooses the generation to fund a job from its user's credit.
// Preference order: the job's previous generation (no migration), then
// the user's preferred generations, each requiring the job to fit,
// sufficient credit, remaining capacity, and the migration cooldown for
// generation changes.
func (p *FairPolicy) pickGen(js *jobState, pref []gpu.Generation, remaining *[gpu.NumGenerations]int) (gpu.Generation, bool) {
	j := js.job
	try := func(g gpu.Generation) bool {
		return j.Perf.FitsOn(g) && remaining[g] >= j.Gang &&
			js.user.credit[g] >= float64(j.Gang)-1e-9 &&
			p.genAllowed(js, g, migrationCooldown)
	}
	if prev, ok := j.LastGen(); ok && try(prev) {
		return prev, true
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
func (p *FairPolicy) genAllowed(js *jobState, g gpu.Generation, cooldown int) bool {
	prev, ok := js.job.LastGen()
	if !ok || prev == g {
		return true
	}
	if p.noMigrate || js.job.Pinned() {
		return false
	}
	return p.round-js.lastMig >= cooldown
}

// Executed implements Policy: charge stride pass for what actually
// ran and refund credits for capacity not consumed (unplaced jobs,
// early finishers). Grants are settled in the order Decide made them:
// two refunds into one credit are a float sum, and its order must not
// vary between runs.
func (p *FairPolicy) Executed(rep *ExecReport) {
	ranAt := slices.Grow(p.ranAt[:0], len(p.granted))[:len(p.granted)]
	clear(ranAt)
	for k := range rep.Ran {
		ranAt[rep.Ran[k].Req] = int32(k) + 1
	}
	p.ranAt = ranAt
	for i, js := range p.granted {
		if !js.granted {
			continue // finished since Decide: its books are gone
		}
		id, gang, us := js.job.ID, float64(js.job.Gang), js.user
		if ranAt[i] == 0 {
			// Fragmentation left it unplaced: full refund.
			if js.viaCredit {
				us.credit[js.gen] += gang
			}
			continue
		}
		if us.jobTickets > 0 {
			// Every granted job joined its user's order in pass 1; not
			// every one has joined the backfill.
			res := gang * rep.Ran[ranAt[i]-1].OccupiedSecs
			js.userPass = stride.Charge(id, js.userPass, res, us.jobTickets)
			if js.fillKnown {
				js.fillPass = stride.Charge(id, js.fillPass, res, us.jobTickets)
			}
		}
	}
	p.granted = p.granted[:0]
}

// JobFinished implements Policy: Executed skips the grant of the job,
// found by binary search, and the next round's group drops its record
// with the job.
func (p *FairPolicy) JobFinished(id job.ID) {
	if i, ok := slices.BinarySearchFunc(p.all, id, func(js *jobState, id job.ID) int { return cmp.Compare(js.job.ID, id) }); ok {
		p.all[i].granted = false
	}
}

// userValues builds one user's trading value vector: gang-weighted
// speedup of each generation over the oldest generation the job has an
// estimate on, across the user's runnable jobs; all zero while no job
// has an estimate, which trades nothing.
func userValues(prof *profiler.Profiler, gens []gpu.Generation, jobs []*jobState) (v [gpu.NumGenerations]float64) {
	var num, den [gpu.NumGenerations]float64
	for _, js := range jobs {
		est := prof.Estimates(js.job)
		if est == nil {
			continue
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
			continue
		}
		w := float64(js.job.Gang)
		for _, g := range gens {
			if r, ok := est.Rate(g); ok {
				num[g] += w * r / baseRate
				den[g] += w
			}
		}
	}
	for g := range v {
		if den[g] > 0 {
			v[g] = num[g] / den[g]
		}
	}
	return v
}

// genPreference orders generations for a user: profiled value per GPU
// (the user's userValues vector) descending — run where your jobs gain
// most — newest first on ties. gens is the round's gensDesc; the
// result is the policy's scratch, good until the next call.
//
//gflint:noretain
func (p *FairPolicy) genPreference(gens []gpu.Generation, v [gpu.NumGenerations]float64) []gpu.Generation {
	pref := append(p.prefBuf[:0], gens...)
	p.prefBuf = pref
	slices.SortFunc(pref, func(a, b gpu.Generation) int {
		if v[a] != v[b] {
			if v[a] > v[b] {
				return -1
			}
			return 1
		}
		return cmp.Compare(b, a)
	})
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
