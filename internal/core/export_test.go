package core

import (
	"repro/internal/fairshare"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/placement"
)

// UseFromScratchReference swaps the round's two maintained mechanisms
// for the from-scratch reference model: placement.Place rescans every
// server instead of consulting the free-capacity index, and
// fairshare.Compute water-fills demand re-summed from the job list
// instead of asking the dirty-set solver. The two are contractually
// byte-identical — same trace, same per-user usage, same
// CanonicalDigest — which the golden digests, TestDifferentialEngines
// and FuzzEngineAudit's differential arm hold the engine to. It exists
// only in test builds. Call before Run.
func (s *Sim) UseFromScratchReference() {
	s.place = func(unavail map[gpu.ServerID]bool, reqs []placement.Request, opts placement.Options) placement.Result {
		opts.Down = unavail
		return placement.Place(s.cfg.Cluster, s.prev, reqs, opts)
	}
	//gflint:ignore retain the closure reads s.jobs afresh each round it is called in; it keeps s, not the slice
	s.shares = func(capacity float64) map[job.UserID]float64 {
		demand := make(map[job.UserID]float64)
		for _, j := range s.jobs {
			demand[j.User] += float64(j.Gang)
		}
		return fairshare.Compute(s.tickets, demand, capacity)
	}
}
