package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/fairshare"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/profiler"
	"repro/internal/stride"
	"repro/internal/trade"
)

// The map-based FairPolicy that the positional one replaced, kept as the
// differential tests' oracle: the policy as of commit b80b69a, before
// its books moved to records walked by position. It is that file with
// the types renamed and these changes only:
//   - RoundState.Deficit is by user position, read through a user's first
//     runnable job, and Decision.Repaid became the flag Decision.Repays;
//   - the map-based stride scheduler and the debt water-fill it called
//     are gone from their packages, so their bodies of that commit are
//     kept here (oracleStride, oracleAllocationWithDebt);
//   - the three FairConfig knobs since removed are constants at their old
//     defaults (MinSamples 1, MigrationCooldown 10, CompMaxShare 0.25);
//   - a job's record is an allocation of its own, not cut from a block;
//   - Hierarchy.Flatten, which the policy now replaces by the positional
//     FlattenInto, is kept here as oracleFlatten, over the orgs the
//     hierarchy was built from (oracleFair.orgs), since Hierarchy does
//     not expose them.

const (
	oracleMinSamples        = 1
	oracleMigrationCooldown = 10
	oracleCompMaxShare      = 0.25
)

type oracleFair struct {
	cfg  FairConfig
	orgs map[string]*fairshare.Org // cfg.Hierarchy's, as NewHierarchy took them

	users    map[job.UserID]*oracleUser
	jobs     map[job.ID]*oracleJob
	backfill *oracleStride

	round     int
	noMigrate bool

	active  []*oracleUser
	granted []*oracleJob
	ranAt   []int32
	demand  map[job.UserID]float64
	vals    trade.Values
	candBuf []stride.Candidate
	prefBuf []gpu.Generation
}

type oracleUser struct {
	id     job.UserID
	credit fairshare.Entitlement
	sched  *oracleStride

	round      int
	jobs       []*oracleJob
	jobTickets float64
	vals       [gpu.NumGenerations]float64
	serveKey   float64
}

type oracleJob struct {
	user    *oracleUser
	job     *job.Job
	lastMig int

	gen       gpu.Generation
	granted   bool
	viaCredit bool
}

func newOracleFair(cfg FairConfig) *oracleFair {
	return &oracleFair{
		cfg:      cfg,
		users:    make(map[job.UserID]*oracleUser),
		jobs:     make(map[job.ID]*oracleJob),
		backfill: newOracleStride(stride.GangAware),
		demand:   make(map[job.UserID]float64),
		vals:     make(trade.Values),
	}
}

func (p *oracleFair) Name() string {
	if p.cfg.EnableTrading {
		return "gandiva-fair"
	}
	return "gandiva-fair-no-trade"
}

func (p *oracleFair) Decide(st *RoundState) Decision {
	p.round++
	p.noMigrate = st.MigrationDisabled
	p.group(st.Jobs)
	caps := st.CapacityByGen()

	// 1. Fair share.
	st.Obs.PhaseStart(obs.PhaseWaterfill)
	tickets := st.Tickets
	if p.cfg.Hierarchy != nil {
		ids := make([]job.UserID, len(p.active))
		for i, us := range p.active {
			ids[i] = us.id
		}
		if p.orgs == nil {
			panic("oracleFair: FairConfig.Hierarchy without the orgs it was built from")
		}
		tickets = oracleFlatten(p.orgs, ids)
	}
	demand := p.demand
	clear(demand)
	for _, us := range p.active {
		gpus := 0
		for _, js := range us.jobs {
			gpus += js.job.Gang
		}
		demand[us.id] = float64(gpus)
		us.jobTickets = fairshare.PerJobTickets(tickets[us.id], len(us.jobs))
	}
	alloc := fairshare.ComputeAllocation(tickets, demand, caps)
	repays := false
	if !p.cfg.DisableCompensation && st.Deficit != nil && st.Quantum > 0 {
		debt := make(map[job.UserID]float64)
		for _, us := range p.active {
			if d := st.Deficit[us.jobs[0].job.UserAt()]; d > 0 && demand[us.id] > 0 {
				debt[us.id] = d / st.Quantum
			}
		}
		if len(debt) > 0 {
			alloc = oracleAllocationWithDebt(tickets, demand, caps, debt, oracleCompMaxShare)
			repays = true
		}
	}
	st.Obs.PhaseEnd(obs.PhaseWaterfill)

	// 2. Trading.
	clear(p.vals)
	present := st.Cluster.GensPresent()
	for _, us := range p.active {
		var profiled bool
		if us.vals, profiled = p.userValues(st.Prof, present, us.jobs); profiled {
			p.vals[us.id] = us.vals
		}
	}
	var trades []trade.Trade
	if p.cfg.EnableTrading {
		st.Obs.PhaseStart(obs.PhaseTrade)
		if adjusted, log, err := trade.Run(alloc, p.vals, demand, p.cfg.Trade); err == nil {
			alloc, trades = adjusted, log
		}
		st.Obs.PhaseEnd(obs.PhaseTrade)
	}

	// 3. Accrue credits, capped per generation.
	var remaining [gpu.NumGenerations]int
	for g, c := range caps {
		remaining[g] = c
	}
	for _, us := range p.active {
		e, ok := alloc[us.id]
		if !ok {
			continue
		}
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
	run := make([]placement.Request, 0, len(st.Jobs))
	schedule := func(js *oracleJob, g gpu.Generation, viaCredit bool) {
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

	// Pass 1 — credit-funded scheduling, users most-credit-first.
	for _, us := range p.active {
		us.serveKey = us.credit.Total()
	}
	slices.SortFunc(p.active, func(a, b *oracleUser) int {
		switch {
		case a.serveKey > b.serveKey:
			return -1
		case a.serveKey < b.serveKey:
			return 1
		default:
			return cmp.Compare(a.id, b.id)
		}
	})
	gens := oracleGensDesc(caps)
	for _, us := range p.active {
		pref := p.genPreference(gens, us.vals)
		cands := p.candBuf[:0]
		for _, js := range us.jobs {
			cands = append(cands, stride.Candidate{ID: js.job.ID, Gang: js.job.Gang, Tickets: us.jobTickets})
		}
		p.candBuf = cands
		for _, id := range us.sched.Order(cands) {
			js := p.jobs[id]
			if g, ok := p.pickGen(js, pref, &remaining); ok {
				schedule(js, g, true)
			}
		}
	}

	// Pass 2 — work-conserving backfill of leftover capacity.
	for _, g := range gens {
		if remaining[g] <= 0 {
			continue
		}
		cands := p.candBuf[:0]
		for _, us := range p.active {
			for _, js := range us.jobs {
				if js.granted || !js.job.Perf.FitsOn(g) || !p.genAllowed(js, g, backfillCooldown) {
					continue
				}
				cands = append(cands, stride.Candidate{ID: js.job.ID, Gang: js.job.Gang, Tickets: us.jobTickets})
			}
		}
		p.candBuf = cands
		if len(cands) == 0 {
			continue
		}
		for _, id := range p.backfill.Select(cands, remaining[g]) {
			schedule(p.jobs[id], g, false)
		}
	}

	return Decision{Run: run, Trades: trades, Repays: repays}
}

func (p *oracleFair) group(jobs []*job.Job) {
	p.active = p.active[:0]
	for _, j := range jobs {
		js := p.jobs[j.ID]
		if js == nil {
			js = p.newJobState(j)
		}
		js.granted = false
		us := js.user
		if us.round != p.round {
			us.round = p.round
			us.jobs = us.jobs[:0]
			p.active = append(p.active, us)
		}
		us.jobs = append(us.jobs, js)
	}
	for id, us := range p.users {
		if us.round != p.round {
			delete(p.users, id)
		}
	}
}

func (p *oracleFair) newJobState(j *job.Job) *oracleJob {
	js := &oracleJob{}
	us := p.users[j.User]
	if us == nil {
		us = &oracleUser{id: j.User, sched: newOracleStride(stride.GangAware)}
		p.users[j.User] = us
	}
	js.user, js.job = us, j
	p.jobs[j.ID] = js
	return js
}

func (p *oracleFair) pickGen(js *oracleJob, pref []gpu.Generation, remaining *[gpu.NumGenerations]int) (gpu.Generation, bool) {
	j := js.job
	try := func(g gpu.Generation) bool {
		return j.Perf.FitsOn(g) && remaining[g] >= j.Gang &&
			js.user.credit[g] >= float64(j.Gang)-1e-9 &&
			p.genAllowed(js, g, oracleMigrationCooldown)
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

func (p *oracleFair) genAllowed(js *oracleJob, g gpu.Generation, cooldown int) bool {
	prev, ok := js.job.LastGen()
	if !ok || prev == g {
		return true
	}
	if p.noMigrate || js.job.Pinned() {
		return false
	}
	return p.round-js.lastMig >= cooldown
}

func (p *oracleFair) Executed(rep *ExecReport) {
	ranAt := slices.Grow(p.ranAt[:0], len(p.granted))[:len(p.granted)]
	clear(ranAt)
	for k := range rep.Ran {
		ranAt[rep.Ran[k].Req] = int32(k) + 1
	}
	p.ranAt = ranAt
	for i, js := range p.granted {
		if !js.granted {
			continue
		}
		id, gang, us := js.job.ID, float64(js.job.Gang), js.user
		if ranAt[i] == 0 {
			if js.viaCredit {
				us.credit[js.gen] += gang
			}
			continue
		}
		if us.jobTickets > 0 {
			res := gang * rep.Ran[ranAt[i]-1].OccupiedSecs
			if us.sched.Has(id) {
				us.sched.Charge(id, res, us.jobTickets)
			}
			if p.backfill.Has(id) {
				p.backfill.Charge(id, res, us.jobTickets)
			}
		}
	}
	p.granted = p.granted[:0]
}

func (p *oracleFair) JobFinished(id job.ID) {
	if js := p.jobs[id]; js != nil {
		js.user.sched.Remove(id)
		js.granted = false
		delete(p.jobs, id)
	}
	p.backfill.Remove(id)
}

func (p *oracleFair) userValues(prof *profiler.Profiler, gens []gpu.Generation, jobs []*oracleJob) (v [gpu.NumGenerations]float64, profiled bool) {
	var num, den [gpu.NumGenerations]float64
	for _, js := range jobs {
		j := js.job
		base := gpu.Generation(-1)
		var baseRate float64
		for _, g := range gens {
			if r, ok := prof.Rate(j.ID, g); ok && prof.Samples(j.ID, g) >= oracleMinSamples {
				base, baseRate = g, r
				break
			}
		}
		if base < 0 || baseRate <= 0 {
			continue
		}
		w := float64(j.Gang)
		for _, g := range gens {
			if r, ok := prof.Rate(j.ID, g); ok && prof.Samples(j.ID, g) >= oracleMinSamples {
				num[g] += w * r / baseRate
				den[g] += w
			}
		}
	}
	for g := range v {
		if den[g] > 0 {
			v[g] = num[g] / den[g]
			profiled = true
		}
	}
	return v, profiled
}

// genPreference returns the policy's scratch, good until the next call.
//
//gflint:noretain
func (p *oracleFair) genPreference(gens []gpu.Generation, v [gpu.NumGenerations]float64) []gpu.Generation {
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

func oracleGensDesc(caps map[gpu.Generation]int) []gpu.Generation {
	gens := make([]gpu.Generation, 0, len(caps))
	for g := range caps {
		gens = append(gens, g)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })
	return gens
}

// oracleFlatten is Hierarchy.Flatten as of the oracle's commit: the
// tickets of the active users in an org, each org's active weights
// summed in user-ID order.
func oracleFlatten(orgs map[string]*fairshare.Org, active []job.UserID) map[job.UserID]float64 {
	activeSet := make(map[job.UserID]bool, len(active))
	for _, u := range active {
		activeSet[u] = true
	}
	out := make(map[job.UserID]float64)
	for _, o := range orgs {
		var wsum float64
		for _, u := range job.SortedUsers(o.Weights) {
			if activeSet[u] {
				wsum += o.Weights[u]
			}
		}
		if wsum <= 0 {
			continue
		}
		for u, w := range o.Weights {
			if activeSet[u] {
				out[u] = o.Tickets * w / wsum
			}
		}
	}
	return out
}

// oracleAllocationWithDebt is fairshare.ComputeAllocationWithDebt as of
// the oracle's commit, less the grants map the policy did not read:
// debtors repaid off the top, within the budget, then the rest
// water-filled over the reduced demands.
func oracleAllocationWithDebt(tickets, demand map[job.UserID]float64, capacities map[gpu.Generation]int, debt map[job.UserID]float64, maxRepayFrac float64) fairshare.Allocation {
	const eps = 1e-9
	c := fairshare.CapacityOf(capacities)
	total := c.Total()

	debtors := make([]job.UserID, 0, len(debt))
	for u := range debt {
		debtors = append(debtors, u)
	}
	sort.Slice(debtors, func(i, j int) bool { return debtors[i] < debtors[j] })
	target := make(map[job.UserID]float64, len(debtors))
	var want float64
	for _, u := range debtors {
		r := math.Min(debt[u], demand[u])
		if r <= eps {
			continue
		}
		target[u] = r
		want += r
	}
	budget := maxRepayFrac * total
	if budget < 0 {
		budget = 0
	}
	if want > budget {
		scale := 0.0
		if want > eps {
			scale = budget / want
		}
		for _, u := range debtors {
			target[u] *= scale
		}
		want = budget
	}

	reduced := make(map[job.UserID]float64, len(demand))
	for u, d := range demand {
		reduced[u] = d
	}
	for _, u := range debtors {
		reduced[u] -= target[u]
	}
	rest := fairshare.Compute(tickets, reduced, total-want)
	shares := make(map[job.UserID]float64, len(rest))
	for u, s := range rest {
		shares[u] = s
	}
	for _, u := range debtors {
		if t := target[u]; t > eps {
			shares[u] += t
		}
	}
	alloc := make(fairshare.Allocation, len(shares))
	for u, s := range shares {
		alloc[u] = c.Split(s)
	}
	return alloc
}

// oracleStride is stride.Scheduler as of the oracle's commit: the passes
// in a map by job ID, a job joining at the minimum pass among the known
// candidates when first offered.
type oracleStride struct {
	mode stride.Mode
	pass map[job.ID]float64
}

type oracleRanked struct {
	pass  float64
	gang  int
	id    job.ID
	joins bool
}

func newOracleStride(mode stride.Mode) *oracleStride {
	return &oracleStride{mode: mode, pass: make(map[job.ID]float64)}
}

func (s *oracleStride) Has(id job.ID) bool {
	_, ok := s.pass[id]
	return ok
}

func (s *oracleStride) Select(cands []stride.Candidate, capacity int) []job.ID {
	if capacity <= 0 || len(cands) == 0 {
		return nil
	}
	keys := s.rank(cands)
	n := 0
	remaining := capacity
	for _, k := range keys {
		if remaining == 0 {
			break
		}
		if k.gang > remaining {
			if s.mode == stride.NaiveBlocking {
				break
			}
			continue
		}
		keys[n] = k
		n++
		remaining -= k.gang
	}
	if n == 0 {
		return nil
	}
	selected := keys[:n]
	slices.SortFunc(selected, func(a, b oracleRanked) int {
		if a.gang != b.gang {
			return cmp.Compare(b.gang, a.gang)
		}
		return cmp.Compare(a.id, b.id)
	})
	return oracleRankedIDs(selected)
}

func (s *oracleStride) Order(cands []stride.Candidate) []job.ID {
	if len(cands) == 0 {
		return nil
	}
	return oracleRankedIDs(s.rank(cands))
}

func (s *oracleStride) rank(cands []stride.Candidate) []oracleRanked {
	keys := make([]oracleRanked, 0, len(cands))
	minPass, found := 0.0, false
	for _, c := range cands {
		p, ok := s.pass[c.ID]
		if ok && (!found || p < minPass) {
			minPass, found = p, true
		}
		keys = append(keys, oracleRanked{pass: p, gang: c.Gang, id: c.ID, joins: !ok})
	}
	n := 0
	for i, c := range cands {
		k := keys[i]
		if k.joins {
			k.pass = minPass
			s.pass[k.id] = minPass
		}
		if c.Gang > 0 && c.Tickets > 0 {
			keys[n] = k
			n++
		}
	}
	keys = keys[:n]
	slices.SortFunc(keys, func(a, b oracleRanked) int {
		switch {
		case a.pass != b.pass:
			if a.pass < b.pass {
				return -1
			}
			return 1
		case a.gang != b.gang:
			return cmp.Compare(b.gang, a.gang)
		default:
			return cmp.Compare(a.id, b.id)
		}
	})
	return keys
}

func oracleRankedIDs(keys []oracleRanked) []job.ID {
	ids := make([]job.ID, len(keys))
	for i, k := range keys {
		ids[i] = k.id
	}
	return ids
}

func (s *oracleStride) Charge(id job.ID, gpuSeconds, tickets float64) {
	if _, ok := s.pass[id]; !ok {
		panic(fmt.Sprintf("stride: Charge for unknown job %d", id))
	}
	s.pass[id] = stride.Charge(id, s.pass[id], gpuSeconds, tickets)
}

func (s *oracleStride) Remove(id job.ID) { delete(s.pass, id) }
