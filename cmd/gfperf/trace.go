package main

import (
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/obs/span"
	"repro/internal/placement"
	"repro/internal/trade"
)

// roundClock is the only instrument of an untraced run: it notes the
// wall time of every Decide entry into a preallocated slice, so the
// gaps between consecutive entries are the round times.
type roundClock struct {
	core.Policy
	at []time.Time
}

func newRoundClock(p core.Policy, rounds int) *roundClock {
	return &roundClock{Policy: p, at: make([]time.Time, 0, rounds+16)}
}

func (c *roundClock) Decide(st *core.RoundState) core.Decision {
	c.at = append(c.at, time.Now())
	return c.Policy.Decide(st)
}

// gapsNs returns the wall time between consecutive Decide entries.
func gapsNs(at []time.Time) []int64 {
	if len(at) < 2 {
		return nil
	}
	out := make([]int64, len(at)-1)
	for i := 1; i < len(at); i++ {
		out[i-1] = at[i].Sub(at[i-1]).Nanoseconds()
	}
	return out
}

// Span names the harness records. A round span runs from one Decide
// entry to the next; the policy calls and the harness's own counting
// are its children, so the round's self time is the engine's.
const (
	spanDecide   = "policy.decide"
	spanExecuted = "policy.executed"
	spanFinished = "policy.job_finished"
	spanHarness  = "harness.count"
	spanAgent    = "agent.exec"
	spanDispatch = "distrib.dispatch"
	spanCollect  = "distrib.collect_wait"
)

// roundCounts is what the decorator counts at the policy boundary in
// one round.
type roundCounts struct {
	jobs, users, runReqs, trades       int
	placed, unplaced, finished, migras int
}

// probeInput is one round's policy inputs, copied so the layer probes
// can replay the layers' public functions at the workload's observed
// shape after the run.
type probeInput struct {
	cluster  *gpu.Cluster
	tickets  map[job.UserID]float64
	demand   map[job.UserID]float64
	jobsPer  map[job.UserID]int
	caps     map[gpu.Generation]int
	values   trade.Values // per-user speed-ups, from the profiler as FairPolicy reads it
	jobs     []*job.Job
	requests []placement.Request
}

// tracedPolicy decorates a core.Policy with spans and counts. It reads
// the round state and the decision and feeds nothing back, so the
// run's digest must equal the undecorated one's.
type tracedPolicy struct {
	inner core.Policy
	tr    *span.Tracer
	round int
	// captureAt is the round whose inputs the probes replay.
	captureAt int
	probe     *probeInput
	counts    []roundCounts
	seen      map[job.UserID]struct{}
	// beforeExecuted, when set, runs as Executed is entered (dist-hub
	// closes its collect span there).
	beforeExecuted func()
}

func newTracedPolicy(p core.Policy, tr *span.Tracer, rounds int) *tracedPolicy {
	return &tracedPolicy{
		inner: p, tr: tr, captureAt: rounds/2 + 1,
		counts: make([]roundCounts, 0, rounds+16),
		seen:   make(map[job.UserID]struct{}),
	}
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) Decide(st *core.RoundState) core.Decision {
	p.tr.EndRound()
	p.round++
	p.tr.BeginRound(p.round, float64(st.Now))

	id := p.tr.Start(spanDecide)
	dec := p.inner.Decide(st)
	p.tr.End(id)

	id = p.tr.Start(spanHarness)
	clear(p.seen)
	for _, j := range st.Jobs {
		p.seen[j.User] = struct{}{}
	}
	p.counts = append(p.counts, roundCounts{
		jobs: len(st.Jobs), users: len(p.seen), runReqs: len(dec.Run), trades: len(dec.Trades),
	})
	if p.round == p.captureAt || p.probe == nil {
		p.probe = captureProbe(st, dec)
	}
	p.tr.End(id)
	return dec
}

func (p *tracedPolicy) Executed(rep *core.ExecReport) {
	if p.beforeExecuted != nil {
		p.beforeExecuted()
	}
	id := p.tr.Start(spanExecuted)
	p.inner.Executed(rep)
	p.tr.End(id)

	id = p.tr.Start(spanHarness)
	c := &p.counts[len(p.counts)-1]
	c.placed, c.unplaced = len(rep.Ran), len(rep.Unplaced)
	for _, info := range rep.Ran {
		if info.Finished {
			c.finished++
		}
		if info.Migrated {
			c.migras++
		}
	}
	p.tr.End(id)
}

func (p *tracedPolicy) JobFinished(jid job.ID) {
	id := p.tr.Start(spanFinished)
	p.inner.JobFinished(jid)
	p.tr.End(id)
}

// finish closes the last round, which no later Decide will.
func (p *tracedPolicy) finish() { p.tr.EndRound() }

func captureProbe(st *core.RoundState, dec core.Decision) *probeInput {
	in := &probeInput{
		cluster:  st.Cluster,
		tickets:  make(map[job.UserID]float64, len(st.Tickets)),
		demand:   make(map[job.UserID]float64),
		jobsPer:  make(map[job.UserID]int),
		caps:     st.CapacityByGen(),
		jobs:     append([]*job.Job(nil), st.Jobs...),
		requests: append([]placement.Request(nil), dec.Run...),
	}
	for _, j := range st.Jobs {
		in.demand[j.User] += float64(j.Gang)
		in.jobsPer[j.User]++
		in.tickets[j.User] = 1
	}
	for u := range in.demand {
		if t, ok := st.Tickets[u]; ok {
			in.tickets[u] = t
		}
	}
	in.values = profiledValues(st)
	return in
}

// profiledValues is each user's gang-weighted speed-up per generation
// over the oldest profiled one: the aggregate FairPolicy hands to
// trade.Run, rebuilt here from the same profiler estimates.
func profiledValues(st *core.RoundState) trade.Values {
	gens := st.Cluster.GensPresent()
	num := make(map[job.UserID]*[gpu.NumGenerations]float64)
	den := make(map[job.UserID]*[gpu.NumGenerations]float64)
	for _, j := range st.Jobs {
		var baseRate float64
		for _, g := range gens {
			if r, ok := st.Prof.Rate(j.ID, g); ok && st.Prof.Samples(j.ID, g) >= 1 {
				baseRate = r
				break
			}
		}
		if baseRate <= 0 {
			continue
		}
		if num[j.User] == nil {
			num[j.User] = new([gpu.NumGenerations]float64)
			den[j.User] = new([gpu.NumGenerations]float64)
		}
		w := float64(j.Gang)
		for _, g := range gens {
			if r, ok := st.Prof.Rate(j.ID, g); ok && st.Prof.Samples(j.ID, g) >= 1 {
				num[j.User][g] += w * r / baseRate
				den[j.User][g] += w
			}
		}
	}
	vals := make(trade.Values, len(num))
	for u := range num {
		var v [gpu.NumGenerations]float64
		for g := range v {
			if den[u][g] > 0 {
				v[g] = num[u][g] / den[u][g]
			}
		}
		vals[u] = v
	}
	return vals
}

// spanStats is what the traced run's spans say about a run.
type spanStats struct {
	roundsMs   []float64 // closed rounds' durations, sorted
	selfMs     []float64 // the same rounds' self time (round minus children), unsorted
	byName     map[string][]float64
	roundCount int
}

// selfTimes returns each span's duration minus the part its direct
// children in the same process cover, in nanoseconds. Such children
// are opened and closed on the parent's goroutine, so they do not
// overlap one another; spans of other processes (agents) run beside
// the parent and are not subtracted.
func selfTimes(spans []span.Span) map[span.ID]int64 {
	self := make(map[span.ID]int64, len(spans))
	proc := make(map[span.ID]string, len(spans))
	for _, s := range spans {
		if s.DurNs >= 0 {
			self[s.ID] = s.DurNs
			proc[s.ID] = s.Proc
		}
	}
	for _, s := range spans {
		if s.Parent == 0 || s.DurNs < 0 {
			continue
		}
		if p, ok := proc[s.Parent]; ok && p == s.Proc {
			self[s.Parent] -= s.DurNs
		}
	}
	return self
}

// analyzeSpans splits spans into round spans (parentless "round"
// spans, one sequence per process) and named children. Each process's
// last round is left out of the round statistics: it is closed by the
// end of the run, not by the next Decide, and so also covers building
// the Result.
func analyzeSpans(spans []span.Span) spanStats {
	st := spanStats{byName: make(map[string][]float64)}
	self := selfTimes(spans)
	last := make(map[string]int) // proc → highest round seen
	for _, s := range spans {
		if s.Parent == 0 && s.Round > last[s.Proc] {
			last[s.Proc] = s.Round
		}
	}
	for _, s := range spans {
		if s.DurNs < 0 {
			continue
		}
		if s.Parent != 0 {
			st.byName[s.Name] = append(st.byName[s.Name], float64(s.DurNs)/1e6)
			continue
		}
		st.roundCount++
		if s.Round == last[s.Proc] {
			continue
		}
		st.roundsMs = append(st.roundsMs, float64(s.DurNs)/1e6)
		st.selfMs = append(st.selfMs, float64(self[s.ID])/1e6)
	}
	sort.Float64s(st.roundsMs)
	return st
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
