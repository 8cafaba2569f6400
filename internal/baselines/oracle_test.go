package baselines

import (
	"sort"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/placement"
)

// The map-and-SliceStable baselines this package replaced, kept
// verbatim as the differential tests' oracle. The one change: the
// static-quota oracle holds one quota per distinct user (the old
// constructor kept a repeated user twice and never handed out the
// GPUs that left over).

func oracleFill(ordered []*job.Job, st *core.RoundState) []placement.Request {
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
		g, ok := oraclePickGen(j, gens, remaining)
		if !ok {
			continue
		}
		remaining[g] -= j.Gang
		run = append(run, placement.Request{Job: j, Gen: g})
	}
	return run
}

func oraclePickGen(j *job.Job, gens []gpu.Generation, remaining map[gpu.Generation]int) (gpu.Generation, bool) {
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

type oracleTiresias struct{}

func (t *oracleTiresias) Name() string { return "tiresias-l" }

func (t *oracleTiresias) Decide(st *core.RoundState) core.Decision {
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
	return core.Decision{Run: oracleFill(ordered, st)}
}

func (t *oracleTiresias) Executed(*core.ExecReport) {}
func (t *oracleTiresias) JobFinished(job.ID)        {}

type oracleGandivaRR struct {
	served map[job.ID]int
}

func newOracleGandivaRR() *oracleGandivaRR {
	return &oracleGandivaRR{served: make(map[job.ID]int)}
}

func (g *oracleGandivaRR) Name() string { return "gandiva-rr" }

func (g *oracleGandivaRR) Decide(st *core.RoundState) core.Decision {
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
	return core.Decision{Run: oracleFill(ordered, st)}
}

func (g *oracleGandivaRR) Executed(rep *core.ExecReport) {
	for _, info := range rep.Ran {
		g.served[info.Job]++
	}
}

func (g *oracleGandivaRR) JobFinished(id job.ID) { delete(g.served, id) }

type oracleStaticQuota struct {
	users []job.UserID
}

func newOracleStaticQuota(users []job.UserID) *oracleStaticQuota {
	us := make([]job.UserID, len(users))
	copy(us, users)
	sort.Slice(us, func(i, j int) bool { return us[i] < us[j] })
	// The one change from the replaced code: a repeated user is one holder.
	distinct := us[:0]
	for i, u := range us {
		if i == 0 || u != us[i-1] {
			distinct = append(distinct, u)
		}
	}
	return &oracleStaticQuota{users: distinct}
}

func (s *oracleStaticQuota) Name() string { return "static-quota" }

func (s *oracleStaticQuota) Decide(st *core.RoundState) core.Decision {
	if len(s.users) == 0 {
		return core.Decision{}
	}
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
			g, ok := oraclePickGen(j, gens, remaining)
			if !ok {
				continue
			}
			remaining[g] -= j.Gang
			run = append(run, placement.Request{Job: j, Gen: g})
		}
	}
	return core.Decision{Run: run}
}

func (s *oracleStaticQuota) Executed(*core.ExecReport) {}
func (s *oracleStaticQuota) JobFinished(job.ID)        {}

type oracleFIFO struct{}

func (f *oracleFIFO) Name() string { return "fifo" }

func (f *oracleFIFO) Decide(st *core.RoundState) core.Decision {
	ordered := make([]*job.Job, len(st.Jobs))
	copy(ordered, st.Jobs)
	sort.SliceStable(ordered, func(i, k int) bool {
		if ordered[i].Arrival != ordered[k].Arrival {
			return ordered[i].Arrival < ordered[k].Arrival
		}
		return ordered[i].ID < ordered[k].ID
	})
	return core.Decision{Run: oracleFill(ordered, st)}
}

func (f *oracleFIFO) Executed(*core.ExecReport) {}
func (f *oracleFIFO) JobFinished(job.ID)        {}
