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
	"sort"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/placement"
)

// fill assigns jobs, in the given priority order, to generations with
// remaining capacity: the job's previous generation first (no
// migration), then newest to oldest. Jobs that fit nowhere are
// skipped (gang-aware backfill).
func fill(ordered []*job.Job, st *core.RoundState) []placement.Request {
	caps := st.CapacityByGen()
	remaining := make(map[gpu.Generation]int, len(caps))
	gens := make([]gpu.Generation, 0, len(caps))
	for g, c := range caps {
		remaining[g] = c
		gens = append(gens, g)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })

	var run []placement.Request
	for _, j := range ordered {
		g, ok := pickGen(j, gens, remaining)
		if !ok {
			continue
		}
		remaining[g] -= j.Gang
		run = append(run, placement.Request{Job: j, Gen: g})
	}
	return run
}

func pickGen(j *job.Job, gens []gpu.Generation, remaining map[gpu.Generation]int) (gpu.Generation, bool) {
	if prev, ok := j.LastGen(); ok && j.Perf.FitsOn(prev) && remaining[prev] >= j.Gang {
		return prev, true
	}
	for _, g := range gens {
		if j.Perf.FitsOn(g) && remaining[g] >= j.Gang {
			return g, true
		}
	}
	return 0, false
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
type Tiresias struct{}

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

// Decide implements core.Policy.
func (t *Tiresias) Decide(st *core.RoundState) core.Decision {
	ordered := make([]*job.Job, len(st.Jobs))
	copy(ordered, st.Jobs)
	sort.SliceStable(ordered, func(i, k int) bool {
		qi, qk := queueOf(ordered[i].AttainedService()), queueOf(ordered[k].AttainedService())
		if qi != qk {
			return qi < qk
		}
		if ordered[i].Arrival != ordered[k].Arrival {
			return ordered[i].Arrival < ordered[k].Arrival
		}
		return ordered[i].ID < ordered[k].ID
	})
	return core.Decision{Run: fill(ordered, st)}
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
	served map[job.ID]int
}

// NewGandivaRR constructs the baseline.
func NewGandivaRR() *GandivaRR {
	return &GandivaRR{served: make(map[job.ID]int)}
}

// Name implements core.Policy.
func (g *GandivaRR) Name() string { return "gandiva-rr" }

// Decide implements core.Policy.
func (g *GandivaRR) Decide(st *core.RoundState) core.Decision {
	// Join rule mirrors stride: newcomers start at the current
	// minimum so they neither monopolize nor starve.
	min := 0
	found := false
	for _, j := range st.Jobs {
		if n, ok := g.served[j.ID]; ok && (!found || n < min) {
			min, found = n, true
		}
	}
	for _, j := range st.Jobs {
		if _, ok := g.served[j.ID]; !ok {
			g.served[j.ID] = min
		}
	}
	ordered := make([]*job.Job, len(st.Jobs))
	copy(ordered, st.Jobs)
	sort.SliceStable(ordered, func(i, k int) bool {
		ni, nk := g.served[ordered[i].ID], g.served[ordered[k].ID]
		if ni != nk {
			return ni < nk
		}
		return ordered[i].ID < ordered[k].ID
	})
	return core.Decision{Run: fill(ordered, st)}
}

// Executed implements core.Policy.
func (g *GandivaRR) Executed(rep *core.ExecReport) {
	for _, info := range rep.Ran {
		g.served[info.Job]++
	}
}

// JobFinished implements core.Policy.
func (g *GandivaRR) JobFinished(id job.ID) { delete(g.served, id) }

// ---------------------------------------------------------------------------
// Static quota

// StaticQuota partitions every generation among all known users in
// ticket proportion, permanently. Each user schedules their own jobs
// (least attained service first) strictly inside their partition:
// perfectly fair, but idle partitions are never lent out, so cluster
// efficiency collapses when demand is uneven — the paper's motivation
// for sharing.
type StaticQuota struct {
	users []job.UserID // fixed at construction: quota holders
}

// NewStaticQuota constructs the baseline for a fixed user population
// (static partitioning cannot react to arrivals by design).
func NewStaticQuota(users []job.UserID) *StaticQuota {
	us := make([]job.UserID, len(users))
	copy(us, users)
	sort.Slice(us, func(i, j int) bool { return us[i] < us[j] })
	return &StaticQuota{users: us}
}

// Name implements core.Policy.
func (s *StaticQuota) Name() string { return "static-quota" }

// Decide implements core.Policy.
func (s *StaticQuota) Decide(st *core.RoundState) core.Decision {
	if len(s.users) == 0 {
		return core.Decision{}
	}
	// Per-generation quota: largest-remainder split of capacity by
	// tickets over the fixed user set.
	caps := st.CapacityByGen()
	quota := make(map[job.UserID]map[gpu.Generation]int, len(s.users))
	for _, u := range s.users {
		quota[u] = make(map[gpu.Generation]int, len(caps))
	}
	var ticketSum float64
	for _, u := range s.users {
		tk := st.Tickets[u]
		if tk <= 0 {
			tk = 1
		}
		ticketSum += tk
	}
	for g, c := range caps {
		type rem struct {
			u    job.UserID
			frac float64
		}
		var rems []rem
		assigned := 0
		for _, u := range s.users {
			tk := st.Tickets[u]
			if tk <= 0 {
				tk = 1
			}
			exact := float64(c) * tk / ticketSum
			n := int(exact)
			quota[u][g] = n
			assigned += n
			rems = append(rems, rem{u, exact - float64(n)})
		}
		sort.SliceStable(rems, func(i, j int) bool {
			if rems[i].frac != rems[j].frac {
				return rems[i].frac > rems[j].frac
			}
			return rems[i].u < rems[j].u
		})
		for i := 0; assigned < c && i < len(rems); i++ {
			quota[rems[i].u][g]++
			assigned++
		}
	}

	byUser := make(map[job.UserID][]*job.Job)
	for _, j := range st.Jobs {
		byUser[j.User] = append(byUser[j.User], j)
	}
	var run []placement.Request
	gens := make([]gpu.Generation, 0, len(caps))
	for g := range caps {
		gens = append(gens, g)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })
	for _, u := range s.users {
		js := byUser[u]
		sort.SliceStable(js, func(i, k int) bool {
			ai, ak := js[i].AttainedService(), js[k].AttainedService()
			if ai != ak {
				return ai < ak
			}
			return js[i].ID < js[k].ID
		})
		remaining := quota[u]
		for _, j := range js {
			g, ok := pickGen(j, gens, remaining)
			if !ok {
				continue
			}
			remaining[g] -= j.Gang
			run = append(run, placement.Request{Job: j, Gen: g})
		}
	}
	return core.Decision{Run: run}
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
type FIFO struct{}

// NewFIFO constructs the baseline.
func NewFIFO() *FIFO { return &FIFO{} }

// Name implements core.Policy.
func (f *FIFO) Name() string { return "fifo" }

// Decide implements core.Policy.
func (f *FIFO) Decide(st *core.RoundState) core.Decision {
	ordered := make([]*job.Job, len(st.Jobs))
	copy(ordered, st.Jobs)
	sort.SliceStable(ordered, func(i, k int) bool {
		if ordered[i].Arrival != ordered[k].Arrival {
			return ordered[i].Arrival < ordered[k].Arrival
		}
		return ordered[i].ID < ordered[k].ID
	})
	return core.Decision{Run: fill(ordered, st)}
}

// Executed implements core.Policy.
func (f *FIFO) Executed(*core.ExecReport) {}

// JobFinished implements core.Policy.
func (f *FIFO) JobFinished(job.ID) {}
