// Package baselines implements the comparison schedulers the paper
// evaluates Gandiva_fair against, behind the same core.Policy
// interface so every policy runs on the identical simulated
// substrate:
//
//   - Tiresias-L: discretized two-dimensional least-attained-service.
//     Job-level service fairness, no user-level guarantee — the
//     paper's fairness comparison target.
//   - Gandiva-RR: Gandiva-style efficiency-only round-robin
//     time-slicing (every job gets slices in turn, regardless of
//     owner or gang width).
//   - Static quota: each user owns a fixed partition sized by
//     tickets. Fair but not work-conserving.
//   - FIFO: arrival order with gang-aware backfill — the cluster
//     default the intro motivates against.
//
// All baselines are heterogeneity-blind: they treat a free GPU as a
// free GPU, preferring newer generations and the job's previous
// generation (to avoid gratuitous migrations), but never reason about
// per-model marginal utility.
package baselines

import (
	"cmp"
	"slices"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/placement"
)

// capacity is free GPUs by generation.
type capacity [gpu.NumGenerations]int

// capacityOf is the round's net capacity (RoundState.CapacityByGen).
func capacityOf(st *core.RoundState) capacity {
	caps := st.CapacityByGen()
	var c capacity
	for g := range c {
		c[g] = caps[gpu.Generation(g)]
	}
	return c
}

// rank is a runnable job's place in a policy's priority order: its
// keys, computed once a round, and its position in RoundState.Jobs.
// Ties end at the unique job ID, so the order is total and any sort
// gives the same one.
type rank struct {
	major, minor float64
	id           job.ID
	at           int32
}

func byRank(a, b rank) int {
	if c := compareKey(a.major, b.major); c != 0 {
		return c
	}
	if c := compareKey(a.minor, b.minor); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// compareKey is cmp.Compare without its NaN cases: no key is NaN.
func compareKey(x, y float64) int {
	if x < y {
		return -1
	}
	if x > y {
		return 1
	}
	return 0
}

// plan is what every baseline keeps across rounds: the round's ranks
// and the decision built from them. Decision.Run is run, good until
// the next Decide rebuilds it.
type plan struct {
	ranks []rank              //gflint:noretain the round's runnable jobs, in priority order once sorted
	run   []placement.Request // the round's Decision.Run, rebuilt in place by the next Decide
}

// fill sorts ranks and requests their jobs, in that order, on
// generations with free capacity: the job's previous generation first
// (no migration), then newest to oldest. Jobs that fit nowhere are
// skipped (gang-aware backfill).
func (p *plan) fill(jobs []*job.Job, ranks []rank, free *capacity) {
	slices.SortFunc(ranks, byRank)
	for _, r := range ranks {
		j := jobs[r.at]
		g, ok := pickGen(j, free)
		if !ok {
			continue
		}
		free[g] -= j.Gang
		p.run = append(p.run, placement.Request{Job: j, Gen: g})
	}
}

func pickGen(j *job.Job, free *capacity) (gpu.Generation, bool) {
	if prev, ok := j.LastGen(); ok && j.Perf.FitsOn(prev) && free[prev] >= j.Gang {
		return prev, true
	}
	for g := gpu.Generation(gpu.NumGenerations - 1); g >= 0; g-- {
		if j.Perf.FitsOn(g) && free[g] >= j.Gang {
			return g, true
		}
	}
	return 0, false
}

// fillAll decides the round: p.ranks fill the whole cluster.
func (p *plan) fillAll(st *core.RoundState) core.Decision {
	p.run = p.run[:0]
	free := capacityOf(st)
	p.fill(st.Jobs, p.ranks, &free)
	//gflint:ignore retain Decision.Run is good until the next Decide, which rebuilds it in place
	return core.Decision{Run: p.run}
}

// ---------------------------------------------------------------------------
// Tiresias-L

// queueThresholds are Tiresias' attained-service boundaries in
// gang-GPU-seconds, ascending: a job with attained service below
// queueThresholds[i] sits in queue i (lower queue = higher priority).
var queueThresholds = [...]float64{1 * 3600, 4 * 3600, 16 * 3600}

// Tiresias implements Tiresias-L: jobs are prioritized by discretized
// least attained service (gang × time), FIFO within a queue. It is
// preemptive at quantum boundaries and entirely job-centric: a user
// who submits more jobs simply owns more of the cluster, which is
// exactly the unfairness Gandiva_fair's evaluation demonstrates.
type Tiresias struct{ plan }

// NewTiresias constructs the baseline.
func NewTiresias() *Tiresias { return &Tiresias{} }

// Name implements core.Policy.
func (t *Tiresias) Name() string { return "tiresias-l" }

func queueOf(attained float64) int {
	for i, th := range queueThresholds {
		if attained < th {
			return i
		}
	}
	return len(queueThresholds)
}

// Decide implements core.Policy: queue, then arrival, then ID.
func (t *Tiresias) Decide(st *core.RoundState) core.Decision {
	t.ranks = t.ranks[:0]
	for i, j := range st.Jobs {
		q := queueOf(j.AttainedService())
		t.ranks = append(t.ranks, rank{major: float64(q), minor: float64(j.Arrival), id: j.ID, at: int32(i)})
	}
	return t.fillAll(st)
}

// Executed implements core.Policy (Tiresias reads attained service
// straight off the jobs; nothing to account).
func (t *Tiresias) Executed(*core.ExecReport) {}

// JobFinished implements core.Policy.
func (t *Tiresias) JobFinished(job.ID) {}

// ---------------------------------------------------------------------------
// Gandiva-RR

// GandivaRR is Gandiva without fairness: round-robin time-slicing at
// job granularity. Every runnable job receives scheduling rounds in
// turn (tracked by a per-job rounds-served counter), maximizing
// utilization and time-slicing overhead amortization but providing no
// user-level guarantee at all.
type GandivaRR struct {
	plan
	// recs holds a job's record at its slot (job.Job.Slot). A record is
	// its job's while the job is runnable; the slot's next job finds
	// another ID there and starts afresh.
	recs []served
}

// served is one job's rounds-served count.
type served struct {
	id  job.ID
	n   int32
	set bool // the record is some job's: a slot never used has none
}

// NewGandivaRR constructs the baseline.
func NewGandivaRR() *GandivaRR { return &GandivaRR{} }

// Name implements core.Policy.
func (g *GandivaRR) Name() string { return "gandiva-rr" }

// Decide implements core.Policy: fewest rounds served, then ID.
func (g *GandivaRR) Decide(st *core.RoundState) core.Decision {
	// Join rule mirrors stride: newcomers start at the current
	// minimum so they neither monopolize nor starve.
	min, found := int32(0), false
	g.ranks = g.ranks[:0]
	for i, j := range st.Jobs {
		at := j.Slot()
		if at >= len(g.recs) { // recs never shrinks, so what it grows into is zero
			g.recs = slices.Grow(g.recs, at+1-len(g.recs))[:at+1]
		}
		rec := &g.recs[at]
		if !rec.set || rec.id != j.ID {
			*rec = served{id: j.ID, n: -1, set: true}
		} else if !found || rec.n < min {
			min, found = rec.n, true
		}
		g.ranks = append(g.ranks, rank{major: float64(rec.n), id: j.ID, at: int32(i)})
	}
	for i := range g.ranks {
		if r := &g.ranks[i]; r.major < 0 {
			r.major = float64(min)
			g.recs[st.Jobs[r.at].Slot()].n = min
		}
	}
	return g.fillAll(st)
}

// Executed implements core.Policy: each job that ran has served one
// more round.
func (g *GandivaRR) Executed(rep *core.ExecReport) {
	for _, info := range rep.Ran {
		g.recs[g.run[info.Req].Job.Slot()].n++
	}
}

// JobFinished implements core.Policy: a finished job's record stays in
// its slot until the slot's next job replaces it.
func (g *GandivaRR) JobFinished(job.ID) {}

// ---------------------------------------------------------------------------
// Static quota

// StaticQuota partitions every generation among all known users in
// ticket proportion, permanently. Each user schedules their own jobs
// (least attained service first) strictly inside their partition:
// perfectly fair, but idle partitions are never lent out, so cluster
// efficiency collapses when demand is uneven — the paper's motivation
// for sharing.
type StaticQuota struct {
	plan
	holders []job.UserID // fixed at construction: the quota holders, distinct and sorted

	// By holder position, rebuilt every round.
	tickets []float64
	quota   []capacity
	frac    []float64 // one generation's split: what each holder's share leaves over its whole GPUs
	order   []int32   // holder positions, largest remainder first
	next    []int32   // one longer: where the holder's next job goes in ranks

	// byUser caches each job's holder by its user's position in the
	// engine's users (job.UserAt).
	byUser []userHolder
}

// userHolder is one user's holder: its position in holders, -1 for a
// user who holds no quota. The zero value matches no job: a job's user
// is never empty.
type userHolder struct {
	user   job.UserID
	holder int32
}

// NewStaticQuota constructs the baseline for a fixed user population
// (static partitioning cannot react to arrivals by design). A user
// listed twice holds one quota.
func NewStaticQuota(users []job.UserID) *StaticQuota {
	us := slices.Clone(users)
	slices.Sort(us)
	us = slices.Compact(us)
	n := len(us)
	return &StaticQuota{
		holders: us,
		tickets: make([]float64, n),
		quota:   make([]capacity, n),
		frac:    make([]float64, n),
		order:   make([]int32, n),
		next:    make([]int32, n+1),
	}
}

// Name implements core.Policy.
func (s *StaticQuota) Name() string { return "static-quota" }

// Decide implements core.Policy: holder by holder, each inside its
// quota, least attained service first, then ID.
func (s *StaticQuota) Decide(st *core.RoundState) core.Decision {
	if len(s.holders) == 0 {
		return core.Decision{}
	}
	s.split(st)
	// Bucket the jobs by holder (a counting sort): count them, turn the
	// counts into each bucket's start, then place each job at its
	// bucket's next slot, which leaves next[h] at the end of bucket h.
	next := s.next
	clear(next)
	for _, j := range st.Jobs {
		if h := s.holderOf(j); h >= 0 {
			next[h+1]++
		}
	}
	for h := 1; h < len(next); h++ {
		next[h] += next[h-1]
	}
	total := int(next[len(next)-1])
	s.ranks = slices.Grow(s.ranks[:0], total)[:total]
	for i, j := range st.Jobs {
		if h := s.holderOf(j); h >= 0 {
			s.ranks[next[h]] = rank{major: j.AttainedService(), id: j.ID, at: int32(i)}
			next[h]++
		}
	}
	s.run = s.run[:0]
	lo := int32(0)
	for h, hi := range next[:len(s.holders)] {
		s.fill(st.Jobs, s.ranks[lo:hi], &s.quota[h])
		lo = hi
	}
	//gflint:ignore retain Decision.Run is good until the next Decide, which rebuilds it in place
	return core.Decision{Run: s.run}
}

// split sets every holder's quota: each generation's capacity split by
// tickets, its leftover GPUs to the largest remainders (ties to the
// smaller user).
func (s *StaticQuota) split(st *core.RoundState) {
	var sum float64
	for i, u := range s.holders {
		tk := st.Tickets[u]
		if tk <= 0 {
			tk = 1
		}
		s.tickets[i] = tk
		sum += tk
	}
	for g, c := range capacityOf(st) {
		assigned := 0
		for i, tk := range s.tickets {
			exact := float64(c) * tk / sum
			n := int(exact)
			s.quota[i][g] = n
			assigned += n
			s.frac[i] = exact - float64(n)
			s.order[i] = int32(i)
		}
		slices.SortFunc(s.order, func(a, b int32) int {
			if c := compareKey(s.frac[b], s.frac[a]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		for i := 0; assigned < c && i < len(s.order); i++ {
			s.quota[s.order[i]][g]++
			assigned++
		}
	}
}

// holderOf returns the position of j's user among the holders, or -1.
// A cache entry is checked against the job's user, so a position in
// another engine's users is looked up afresh.
func (s *StaticQuota) holderOf(j *job.Job) int32 {
	u := j.UserAt()
	if u >= len(s.byUser) {
		s.byUser = append(s.byUser, make([]userHolder, u+1-len(s.byUser))...)
	}
	c := &s.byUser[u]
	if c.user != j.User {
		i, ok := slices.BinarySearch(s.holders, j.User)
		c.user, c.holder = j.User, -1
		if ok {
			c.holder = int32(i)
		}
	}
	return c.holder
}

// Executed implements core.Policy.
func (s *StaticQuota) Executed(*core.ExecReport) {}

// JobFinished implements core.Policy.
func (s *StaticQuota) JobFinished(job.ID) {}

// ---------------------------------------------------------------------------
// FIFO

// FIFO runs jobs in arrival order with gang-aware backfill and no
// preemption pressure: once running, a job keeps its GPUs until it
// finishes (it always sorts ahead of anything that arrived later).
type FIFO struct{ plan }

// NewFIFO constructs the baseline.
func NewFIFO() *FIFO { return &FIFO{} }

// Name implements core.Policy.
func (f *FIFO) Name() string { return "fifo" }

// Decide implements core.Policy: arrival, then ID.
func (f *FIFO) Decide(st *core.RoundState) core.Decision {
	f.ranks = f.ranks[:0]
	for i, j := range st.Jobs {
		f.ranks = append(f.ranks, rank{major: float64(j.Arrival), id: j.ID, at: int32(i)})
	}
	return f.fillAll(st)
}

// Executed implements core.Policy.
func (f *FIFO) Executed(*core.ExecReport) {}

// JobFinished implements core.Policy.
func (f *FIFO) JobFinished(job.ID) {}
