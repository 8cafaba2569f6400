package core

import (
	"cmp"
	"slices"

	"repro/internal/fairshare"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/placement"
	"repro/internal/simclock"
	"repro/internal/stride"
)

// UseFromScratchReference swaps the round's maintained mechanism for
// the from-scratch reference model: placement.Place rescans every
// server instead of consulting the persistent index, from a prev map
// built out of the jobs' records, and its Result is restated as the
// positional Round the engine reads (nothing is ever held: every job's
// devices are only where it last ran). The two are contractually
// byte-identical — same trace, same per-user usage, same
// CanonicalDigest — which the golden digests, TestDifferentialEngines
// and FuzzEngineAudit's differential arm hold the engine to. It exists
// only in test builds. Call before Run.
func (s *Sim) UseFromScratchReference() { s.place = s.placeFromScratch }

//gflint:noretain
func (s *Sim) placeFromScratch(unavail *gpu.ServerSet, reqs []placement.Request, opts placement.Options) *placement.Round {
	opts.Down = unavail
	res := placement.Place(s.cfg.Cluster, s.Placement(), reqs, opts)
	rd := &placement.Round{Marks: make([]placement.Mark, len(reqs))}
	for i, r := range reqs {
		devs, ok := res.Assignment[r.Job.ID]
		if !ok {
			continue // placement.Unplaced
		}
		last := r.Job.Devices()
		rd.Marks[i] = placement.Placed
		if _, moved := slices.BinarySearch(res.Migrated, r.Job.ID); moved {
			rd.Marks[i] = placement.Moved
			rd.Moved = append(rd.Moved, placement.Move{Job: r.Job, From: last})
		} else if slices.Equal(devs, last) {
			rd.Marks[i] = placement.Kept
		}
		r.Job.SetDevices(devs, 0)
	}
	slices.SortFunc(rd.Moved, func(a, b placement.Move) int { return cmp.Compare(a.Job.ID, b.Job.ID) })
	return rd
}

// servers is the set of the given servers.
func servers(ids ...gpu.ServerID) *gpu.ServerSet {
	var set gpu.ServerSet
	for _, id := range ids {
		set.Add(id)
	}
	return &set
}

// countStrideCompares adds the priority comparisons every stride.Order
// call makes to *n — the policy's per-job ordering work — until the
// returned stop is called. Tests that use it must not run in parallel.
func countStrideCompares(n *int) (stop func()) {
	stride.OnOrder = func(compares int) { *n += compares }
	return func() { stride.OnOrder = nil }
}

// Credit is a user's current deficit credits: zero unless they had a
// runnable job at the last Decide.
func (p *FairPolicy) Credit(u job.UserID) fairshare.Entitlement {
	for _, at := range p.active {
		if p.users[at].id == u {
			return p.users[at].credit
		}
	}
	return fairshare.Entitlement{}
}

// QueueDelays returns, for each finished job, the wait from arrival
// to its first quantum in seconds.
func (r *Result) QueueDelays() []float64 {
	out := make([]float64, 0, len(r.Finished))
	for _, j := range r.Finished {
		if d, ok := queueDelay(j); ok {
			out = append(out, d)
		}
	}
	return out
}

// queueDelay is the wait from a job's arrival to its first quantum,
// read off the job's checkpoint record; ok is false if it never ran.
func queueDelay(j *job.Job) (simclock.Duration, bool) {
	cp := j.Checkpoint()
	if !cp.EverRan {
		return 0, false
	}
	return cp.FirstRun.Sub(j.Arrival), true
}
