package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/fairshare"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/placement"
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

	// MinSamples is how many profiler observations a job needs on a
	// generation before its estimate feeds trading. Zero means 1.
	MinSamples int

	// MigrationCooldown is the minimum number of rounds between
	// generation changes for one job, damping migration thrash when a
	// user's entitlement straddles generations. Zero means 10.
	MigrationCooldown int

	// Hierarchy, when set, replaces the flat per-user tickets with
	// two-level org → user fairness: each round the orgs' tickets are
	// flattened over the currently active users (see
	// fairshare.Hierarchy). RoundState tickets are then ignored.
	Hierarchy *fairshare.Hierarchy

	// DisableCompensation turns off failure compensation: deficits in
	// RoundState.Deficit are ignored and Decision.Repaid stays nil
	// (the compensation ablation).
	DisableCompensation bool

	// CompMaxShare caps per-round failure repayment at this fraction
	// of total capacity, so catch-up cannot crowd out live shares.
	// Zero means 0.25.
	CompMaxShare float64
}

// FairPolicy implements Gandiva_fair: ticket fair share with
// water-filling, per-user gang-aware stride scheduling realized
// through per-(user, generation) deficit credits, work-conserving
// backfill, and optional automatic trading.
//
// Fairness mechanics per round:
//
//  1. Water-filling splits cluster capacity among active users by
//     tickets, capped by demand (fairshare.ComputeAllocation), then
//     trading (optionally) exchanges entitlement between generations
//     at Pareto prices.
//  2. Each user's per-generation entitlement accrues into a credit
//     counter. A gang is scheduled against credits, so a user whose
//     big gang does not fit this round keeps accumulating credit and
//     catches up later — gang granularity cannot cause starvation.
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

	userSched map[job.UserID]*stride.Scheduler
	backfill  *stride.Scheduler
	credit    map[job.UserID]fairshare.Entitlement
	jobUser   map[job.ID]job.UserID

	round     int
	noMigrate bool            // engine refuses migrations this run
	pinned    map[job.ID]bool // jobs in migration-failure backoff this round
	lastMig   map[job.ID]int  // round of the job's last generation change

	// pending maps jobs scheduled this round to their charging info,
	// consumed by Executed.
	pending map[job.ID]chargeInfo

	// waterfill memoizes the non-debt water-fill across rounds: most
	// rounds repeat the previous round's tickets/demand/capacity, so
	// the solve — and its map churn — amortizes away.
	waterfill *fairshare.AllocationSolver

	// Decide's scratch, kept across rounds and cleared, never rebuilt.
	jobByID   map[job.ID]*job.Job //gflint:noretain the round's runnable jobs, for resolving a selected ID
	scheduled map[job.ID]bool     //gflint:noretain jobs already scheduled this round
	candBuf   []stride.Candidate  //gflint:noretain one user's (pass 1) or one generation's (pass 2) candidates
	serveBuf  []userCredit        //gflint:noretain pass 1's most-credit-first user order
	prefBuf   []gpu.Generation    //gflint:noretain one user's generation preference
}

// userCredit is a user's total credit, snapshotted as the serve-order
// sort key.
type userCredit struct {
	user   job.UserID
	credit float64
}

type chargeInfo struct {
	user       job.UserID
	gen        gpu.Generation
	gang       int
	jobTickets float64
	viaCredit  bool
}

// NewFairPolicy constructs the policy.
func NewFairPolicy(cfg FairConfig) (*FairPolicy, error) {
	if cfg.MinSamples == 0 {
		cfg.MinSamples = 1
	}
	if cfg.MinSamples < 0 {
		return nil, fmt.Errorf("core: negative MinSamples")
	}
	if cfg.MigrationCooldown == 0 {
		cfg.MigrationCooldown = 10
	}
	if cfg.MigrationCooldown < 0 {
		return nil, fmt.Errorf("core: negative MigrationCooldown")
	}
	if cfg.CompMaxShare == 0 {
		cfg.CompMaxShare = 0.25
	}
	if cfg.CompMaxShare < 0 || cfg.CompMaxShare > 1 {
		return nil, fmt.Errorf("core: CompMaxShare %v outside (0,1]", cfg.CompMaxShare)
	}
	if err := cfg.Trade.Validate(); err != nil {
		return nil, err
	}
	return &FairPolicy{
		cfg:       cfg,
		userSched: make(map[job.UserID]*stride.Scheduler),
		backfill:  stride.New(stride.GangAware),
		credit:    make(map[job.UserID]fairshare.Entitlement),
		jobUser:   make(map[job.ID]job.UserID),
		lastMig:   make(map[job.ID]int),
		pending:   make(map[job.ID]chargeInfo),
		waterfill: fairshare.NewAllocationSolver(),
		jobByID:   make(map[job.ID]*job.Job),
		scheduled: make(map[job.ID]bool),
	}, nil
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
	byUser := groupByUser(st.Jobs)
	users := sortedUsers(byUser)
	caps := st.CapacityByGen()
	clear(p.jobByID)
	for _, j := range st.Jobs {
		p.jobByID[j.ID] = j
	}

	// 1. Fair share.
	st.Obs.PhaseStart(obs.PhaseWaterfill)
	tickets := st.Tickets
	if p.cfg.Hierarchy != nil {
		tickets = p.cfg.Hierarchy.Flatten(users)
	}
	demand := make(map[job.UserID]float64, len(byUser))
	jobsPer := make(map[job.UserID]int, len(byUser))
	for u, js := range byUser {
		for _, j := range js {
			demand[u] += float64(j.Gang)
		}
		jobsPer[u] = len(js)
	}
	// Solve is memoized (fairshare.AllocationSolver); the result is
	// shared storage, but every consumer below either reads it or
	// replaces the local variable (trade.Run clones), never mutates.
	alloc := p.waterfill.Solve(tickets, demand, caps)
	// Failure compensation: repay users' fault deficits off the top
	// of the water-fill, before surplus redistribution, so GPU time
	// lost to faults is restored instead of diluted away.
	var repaid map[job.UserID]float64
	if !p.cfg.DisableCompensation && len(st.Deficit) > 0 && st.Quantum > 0 {
		debt := make(map[job.UserID]float64)
		for u, d := range st.Deficit {
			if d > 0 && demand[u] > 0 {
				debt[u] = d / st.Quantum // GPU-seconds owed → GPUs this round
			}
		}
		if len(debt) > 0 {
			withDebt, granted := fairshare.ComputeAllocationWithDebt(tickets, demand, caps, debt, p.cfg.CompMaxShare)
			alloc = withDebt
			// A non-nil map — even with zero grants — tells the engine
			// the policy is compensating, so materialized catch-up may
			// drain the deficit (see Sim.settleCompensation).
			repaid = make(map[job.UserID]float64, len(granted))
			for u, g := range granted {
				repaid[u] = g * st.Quantum
			}
		}
	}
	st.Obs.PhaseEnd(obs.PhaseWaterfill)

	// 2. Trading. The value vectors also order each user's generation
	// preference in pass 1, so they are computed once, trading or not.
	vals := p.userValues(st, byUser)
	var trades []trade.Trade
	if p.cfg.EnableTrading {
		st.Obs.PhaseStart(obs.PhaseTrade)
		adjusted, log, err := trade.Run(alloc, vals, demand, p.cfg.Trade)
		if err == nil {
			alloc = adjusted
			trades = log
		}
		st.Obs.PhaseEnd(obs.PhaseTrade)
	}

	// 3. Accrue credits; drop departed users; cap per generation.
	for u := range p.credit {
		if _, active := byUser[u]; !active {
			delete(p.credit, u)
			delete(p.userSched, u)
		}
	}
	for _, u := range users {
		c := p.credit[u]
		if c == nil {
			c = fairshare.Entitlement{}
			p.credit[u] = c
		}
		for g, e := range alloc[u] {
			c[g] += e
			if limit := float64(caps[g]); c[g] > limit {
				c[g] = limit
			}
		}
	}

	// 4. Selection.
	p.round++
	p.noMigrate = st.MigrationDisabled
	p.pinned = st.Pinned
	jobTickets := fairshare.JobTickets(tickets, jobsPer)
	var remaining [gpu.NumGenerations]int
	for g, c := range caps {
		remaining[g] = c
	}
	scheduled := p.scheduled
	clear(scheduled)
	run := make([]placement.Request, 0, len(st.Jobs))

	schedule := func(u job.UserID, j *job.Job, g gpu.Generation, viaCredit bool) {
		scheduled[j.ID] = true
		remaining[g] -= j.Gang
		if viaCredit {
			cr := p.credit[u]
			c := cr[g]
			st.Obs.Explain(j.ID, "credit", c, c-float64(j.Gang))
			cr[g] = c - float64(j.Gang)
		} else if st.Obs != nil {
			c := p.credit[u][g]
			st.Obs.Explain(j.ID, "backfill", c, c)
		}
		if prev, ok := st.PrevGen[j.ID]; ok && prev != g {
			p.lastMig[j.ID] = p.round
		}
		p.jobUser[j.ID] = u
		p.pending[j.ID] = chargeInfo{
			user: u, gen: g, gang: j.Gang,
			jobTickets: jobTickets[u], viaCredit: viaCredit,
		}
		run = append(run, placement.Request{Job: j, Gen: g})
	}

	// Pass 1 — credit-funded scheduling: per user, walk jobs in
	// gang-aware stride pass order and fund each from the credit of
	// the generation it should run on (previous generation when
	// possible; otherwise the user's most valuable generation, gated
	// by the migration cooldown).
	//
	// Users are served most-credit-first: when capacity is scarce the
	// user who has been shorted longest wins, so synchronized credit
	// cycles cannot starve whoever happens to sort last.
	serveOrder := p.serveBuf[:0]
	for _, u := range users {
		serveOrder = append(serveOrder, userCredit{user: u, credit: p.credit[u].Total()})
	}
	p.serveBuf = serveOrder
	slices.SortFunc(serveOrder, func(a, b userCredit) int {
		switch {
		case a.credit > b.credit:
			return -1
		case a.credit < b.credit:
			return 1
		default:
			return cmp.Compare(a.user, b.user)
		}
	})
	gens := gensDesc(caps)
	for _, su := range serveOrder {
		u := su.user
		pref := p.genPreference(gens, vals[u])
		cands := p.candBuf[:0]
		for _, j := range byUser[u] {
			cands = append(cands, stride.Candidate{ID: j.ID, Gang: j.Gang, Tickets: jobTickets[u]})
		}
		p.candBuf = cands
		for _, id := range p.schedFor(u).Order(cands) {
			j := p.jobByID[id]
			g, ok := p.pickGen(j, st.PrevGen, pref, &remaining, true)
			if ok {
				schedule(u, j, g, true)
			}
		}
	}

	// Pass 2 — work-conserving backfill of leftover capacity, charged
	// against a global stride so no user freeloads persistently. The
	// cooldown still applies: backfill must not cause thrash either.
	for _, g := range gens {
		if remaining[g] <= 0 {
			continue
		}
		cands := p.candBuf[:0]
		for _, u := range users {
			for _, j := range byUser[u] {
				if scheduled[j.ID] || !j.Perf.FitsOn(g) {
					continue
				}
				// Backfill uses a short cooldown: moving an otherwise
				// idle job onto idle capacity is a one-way move, not
				// thrash, so only back-to-back flapping is blocked.
				if !p.genAllowedWithin(j, st.PrevGen, g, backfillCooldown) {
					continue
				}
				cands = append(cands, stride.Candidate{ID: j.ID, Gang: j.Gang, Tickets: jobTickets[u]})
			}
		}
		p.candBuf = cands
		if len(cands) == 0 {
			continue
		}
		for _, id := range p.backfill.Select(cands, remaining[g]) {
			j := p.jobByID[id]
			schedule(j.User, j, g, false)
		}
	}

	return Decision{Run: run, Trades: trades, Repaid: repaid}
}

// pickGen chooses the generation to fund a job from. Preference
// order: the job's previous generation (no migration), then the
// user's preferred generations, each requiring the job to fit,
// sufficient credit (when viaCredit), remaining capacity, and the
// migration cooldown for generation changes.
func (p *FairPolicy) pickGen(j *job.Job, prevGen map[job.ID]gpu.Generation, pref []gpu.Generation, remaining *[gpu.NumGenerations]int, viaCredit bool) (gpu.Generation, bool) {
	try := func(g gpu.Generation) bool {
		if !j.Perf.FitsOn(g) || remaining[g] < j.Gang {
			return false
		}
		if viaCredit {
			c := p.credit[j.User]
			if c == nil || c[g] < float64(j.Gang)-1e-9 {
				return false
			}
		}
		return p.genAllowed(j, prevGen, g)
	}
	if prev, ok := prevGen[j.ID]; ok && try(prev) {
		return prev, true
	}
	for _, g := range pref {
		if try(g) {
			return g, true
		}
	}
	return 0, false
}

// backfillCooldown is the reduced generation-change cooldown used in
// the backfill pass (see Decide).
const backfillCooldown = 2

// genAllowed enforces the migration cooldown: a job may change
// generation only if it has not changed within the last cooldown
// rounds.
func (p *FairPolicy) genAllowed(j *job.Job, prevGen map[job.ID]gpu.Generation, g gpu.Generation) bool {
	return p.genAllowedWithin(j, prevGen, g, p.cfg.MigrationCooldown)
}

func (p *FairPolicy) genAllowedWithin(j *job.Job, prevGen map[job.ID]gpu.Generation, g gpu.Generation, cooldown int) bool {
	prev, ok := prevGen[j.ID]
	if !ok || prev == g {
		return true
	}
	if p.noMigrate || p.pinned[j.ID] {
		return false
	}
	return p.round-p.lastMig[j.ID] >= cooldown
}

// Executed implements Policy: charge stride pass for what actually
// ran and refund credits for capacity not consumed (unplaced jobs,
// early finishers).
func (p *FairPolicy) Executed(rep *ExecReport) {
	for id, ci := range p.pending {
		info, ran := rep.Ran[id]
		if !ran {
			// Fragmentation left it unplaced: full refund.
			if ci.viaCredit {
				p.refund(ci, float64(ci.gang))
			}
			continue
		}
		res := float64(ci.gang) * info.OccupiedSecs
		if ci.jobTickets > 0 {
			if s := p.userSched[ci.user]; s != nil && s.Has(id) {
				s.Charge(id, res, ci.jobTickets)
			}
			if p.backfill.Has(id) {
				p.backfill.Charge(id, res, ci.jobTickets)
			}
		}
	}
	clear(p.pending)
}

// JobFinished implements Policy.
func (p *FairPolicy) JobFinished(id job.ID) {
	if u, ok := p.jobUser[id]; ok {
		if s := p.userSched[u]; s != nil {
			s.Remove(id)
		}
		delete(p.jobUser, id)
	}
	p.backfill.Remove(id)
	delete(p.pending, id)
	delete(p.lastMig, id)
}

// Credit exposes a user's current deficit credits (for tests and
// debugging).
func (p *FairPolicy) Credit(u job.UserID) fairshare.Entitlement {
	return p.credit[u].Clone()
}

func (p *FairPolicy) refund(ci chargeInfo, amount float64) {
	c := p.credit[ci.user]
	if c == nil {
		return
	}
	c[ci.gen] += amount
}

func (p *FairPolicy) schedFor(u job.UserID) *stride.Scheduler {
	s := p.userSched[u]
	if s == nil {
		s = stride.New(stride.GangAware)
		p.userSched[u] = s
	}
	return s
}

// userValues builds the trading value vectors: gang-weighted speedup
// of each generation over the oldest generation the job has an
// estimate on, across the user's runnable jobs.
func (p *FairPolicy) userValues(st *RoundState, byUser map[job.UserID][]*job.Job) trade.Values {
	gens := st.Cluster.GensPresent()
	vals := make(trade.Values, len(byUser))
	for u, js := range byUser {
		var num, den [gpu.NumGenerations]float64
		for _, j := range js {
			base := gpu.Generation(-1)
			var baseRate float64
			for _, g := range gens {
				if r, ok := st.Prof.Rate(j.ID, g); ok && st.Prof.Samples(j.ID, g) >= p.cfg.MinSamples {
					base, baseRate = g, r
					break
				}
			}
			if base < 0 || baseRate <= 0 {
				continue
			}
			w := float64(j.Gang)
			for _, g := range gens {
				if r, ok := st.Prof.Rate(j.ID, g); ok && st.Prof.Samples(j.ID, g) >= p.cfg.MinSamples {
					num[g] += w * r / baseRate
					den[g] += w
				}
			}
		}
		var v [gpu.NumGenerations]float64
		any := false
		for g := range v {
			if den[g] > 0 {
				v[g] = num[g] / den[g]
				any = true
			}
		}
		if any {
			vals[u] = v
		}
	}
	return vals
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

func groupByUser(jobs []*job.Job) map[job.UserID][]*job.Job {
	m := make(map[job.UserID][]*job.Job)
	for _, j := range jobs {
		m[j.User] = append(m[j.User], j)
	}
	return m
}

func sortedUsers(m map[job.UserID][]*job.Job) []job.UserID {
	users := make([]job.UserID, 0, len(m))
	for u := range m {
		users = append(users, u)
	}
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })
	return users
}

// gensDesc returns the present generations newest first.
func gensDesc(caps map[gpu.Generation]int) []gpu.Generation {
	gens := make([]gpu.Generation, 0, len(caps))
	for g := range caps {
		gens = append(gens, g)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })
	return gens
}
