package core

import (
	"repro/internal/gpu"
	"repro/internal/placement"
)

// UseFromScratchReference swaps the round's maintained mechanism for
// the from-scratch reference model: placement.Place rescans every
// server instead of consulting the free-capacity index. The two are
// contractually byte-identical — same trace, same per-user usage, same
// CanonicalDigest — which the golden digests, TestDifferentialEngines
// and FuzzEngineAudit's differential arm hold the engine to. It exists
// only in test builds. Call before Run.
func (s *Sim) UseFromScratchReference() {
	s.place = func(unavail map[gpu.ServerID]bool, reqs []placement.Request, opts placement.Options) placement.Result {
		opts.Down = unavail
		return placement.Place(s.cfg.Cluster, s.prev, reqs, opts)
	}
}
