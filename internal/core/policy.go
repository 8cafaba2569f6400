// Package core contains the Gandiva_fair scheduler and the
// round-based cluster simulation engine that drives it (and the
// baseline policies) over the simulated GPU substrate.
//
// Architecture: the engine (Sim) owns ground truth — jobs, devices,
// the clock — and exposes a policy interface mirroring the paper's
// central scheduler: each scheduling quantum the policy is shown the
// runnable jobs and decides which of them run and on which GPU
// generation; the engine then places gangs onto concrete devices,
// charges suspend/resume/migration overheads, advances training
// progress, and reports back what actually ran so the policy can
// update its fairness accounting.
package core

import (
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/placement"
	"repro/internal/profiler"
	"repro/internal/simclock"
	"repro/internal/trade"
)

// RoundState is the snapshot a policy sees at the start of a round.
// The engine keeps one and refills it in place every round, so it is
// good until the next Decide: a policy that needs any of it later
// copies what it needs.
type RoundState struct {
	Now     simclock.Time
	Quantum simclock.Duration
	Cluster *gpu.Cluster

	// Jobs lists all runnable (arrived, unfinished) jobs in ID order.
	// Policies must not mutate them or the slice, and must not retain
	// the slice past Decide — it is the engine's own live list, which
	// it compacts in place when jobs retire. What a migration-aware
	// decision needs to know about a job is on the job: LastGen is the
	// generation it last ran on, and while Pinned (migration-failure
	// backoff) the engine will refuse to move it, so policies should
	// only fund it there. A policy that keeps books per job may key them
	// by the job's slot (job.Job.Slot), which the job holds from
	// admission to retirement and then hands on to a later job; it knows
	// its own record by the job ID it finds there.
	//gflint:noretain the engine's live list, compacted in place every round
	Jobs []*job.Job

	// Tickets are the per-user fair-share weights.
	Tickets map[job.UserID]float64

	// Prof is the engine's profiler. Estimates(j) reads a job's profiled
	// throughput from the profiler's record at the job's slot
	// (job.Job.Slot), with no lookup by ID; Rate and Samples by ID go
	// through an index over the same records, built on first use after a
	// change.
	Prof *profiler.Profiler

	// MigrationDisabled tells policies the engine will refuse to move
	// previously-run jobs, so they should not request generation
	// changes (the no-migration ablation).
	MigrationDisabled bool

	// Down holds the servers failed or unreachable this round; their
	// GPUs are unplaceable. Use CapacityByGen for the net capacity.
	//gflint:noretain the engine's set, rewritten in place every round
	Down *gpu.ServerSet

	// Quarantined holds the healthy servers the quarantine circuit
	// breaker has excluded from placement and backfill (flaky-server
	// cool-off): the breaker's own set, never nil from the engine, and
	// empty while no threshold is configured. Disjoint concern from Down
	// — a server can be in either or both; CapacityByGen subtracts the
	// union once.
	//gflint:noretain the breaker's set, updated in place every round
	Quarantined *gpu.ServerSet

	// Deficit is each user's outstanding failure-compensation debt in
	// occupied GPU-seconds (GPU time lost to faults, not yet repaid), by
	// user position: a job's user is at Deficit[j.UserAt()]. Nil when no
	// one owes. Policies that honor it say so with Decision.Repays.
	//gflint:noretain the engine's buffer, rewritten every round
	Deficit []float64

	// Obs is the round's instrumentation — nil when uninstrumented. All
	// its methods are nil-safe, so policies may call it unconditionally
	// to time sub-phases (waterfill, trade) and explain their choices.
	Obs *RoundObs

	// caps is the round's CapacityByGen result, set by the engine once
	// it has computed it so the policy's call does not recompute it.
	caps map[gpu.Generation]int
}

// CapacityByGen returns per-generation GPU counts net of failed
// servers — the capacity policies must plan against. Callers must not
// mutate the result: the engine plans and audits the round against
// the same map.
func (st *RoundState) CapacityByGen() map[gpu.Generation]int {
	if st.caps != nil {
		return st.caps
	}
	caps := st.Cluster.CapacityByGen()
	subtract := func(sid gpu.ServerID) bool {
		srv := st.Cluster.Server(sid)
		caps[srv.Gen] -= srv.NumGPUs()
		if caps[srv.Gen] <= 0 {
			delete(caps, srv.Gen)
		}
		return true
	}
	st.Down.ForEach(subtract)
	st.Quarantined.ForEach(func(sid gpu.ServerID) bool {
		if !st.Down.Has(sid) {
			subtract(sid)
		}
		return true
	})
	return caps
}

// Decision is a policy's output for one round.
type Decision struct {
	// Run lists the jobs to execute this quantum and the generation
	// each should run on. Total gang width per generation must not
	// exceed cluster capacity; the engine validates this. The slice may
	// be the policy's own buffer: it is good until the policy's next
	// Decide, so a caller that keeps it longer copies it.
	Run []placement.Request

	// Trades logs the resource trades behind this decision (empty
	// for policies without trading).
	Trades []trade.Trade

	// Repays declares the policy is honoring RoundState.Deficit this
	// round. The engine then drains each debtor's deficit by the
	// catch-up that actually materializes (occupied time beyond the fair
	// reference, capped at the debt) — grants surface as excess
	// occupancy via the policy's own credit accounting. False for
	// policies without compensation.
	Repays bool
}

// RanInfo describes one job's execution during a round.
type RanInfo struct {
	Job          job.ID
	Req          int // index of the job's request in the round's Decision.Run
	User         job.UserID
	Gen          gpu.Generation
	Gang         int
	OccupiedSecs simclock.Duration // wall time GPUs were held
	UsefulSecs   simclock.Duration // minibatch-productive time
	Migrated     bool
	Finished     bool
}

// ExecReport tells the policy what actually happened in the round
// (jobs can lose time to migration or finish early, and fragmentation
// can leave a requested job unplaced). Ran lists the jobs that ran, in
// job-ID order; a requested job that is not in it did not run. Policies
// must not retain the report or its slices past Executed — the engine
// refills the same ones every round.
type ExecReport struct {
	//gflint:noretain refilled by the engine every round
	Ran []RanInfo
	//gflint:noretain refilled by the engine every round
	Unplaced []job.ID
}

// Policy is a pluggable cluster scheduler. Implementations include
// the Gandiva_fair policy in this package and the baselines in
// internal/baselines. Policies are driven from the single simulation
// goroutine; no synchronization is needed.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string

	// Decide picks this round's job→generation assignments. st is the
	// engine's, good until the next Decide; it must not be retained.
	Decide(st *RoundState) Decision

	// Executed reports the round's actual outcome for accounting.
	Executed(rep *ExecReport)

	// JobFinished tells the policy to drop state for a job.
	JobFinished(id job.ID)
}
