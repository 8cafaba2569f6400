package core

import (
	"cmp"
	"slices"

	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// Quantum is one placed job's share of a round: the engine fills the
// grant, the executor the answer, and the engine alone turns the answer
// into progress, occupied time and usage.
type Quantum struct {
	// The grant. Job is the engine's live record: an executor reads it
	// (ID, TotalMB, DoneMB, GangRate) and never mutates it.
	Job   *job.Job
	Devs  []gpu.DeviceID
	Gen   gpu.Generation
	Start simclock.Time // the round's start

	Migrated bool
	// Overhead is the resume or migration cost (capped at the quantum),
	// Eff the throughput left by the span penalty and any degraded
	// server, and Avail = (quantum − Overhead) × Eff the seconds the job
	// may train at its full rate on Gen, from checkpoint Job.DoneMB().
	Overhead simclock.Duration
	Eff      float64
	Avail    simclock.Duration

	// The answer: job.Progress of the grant, wherever it was computed.
	// Answered false means nothing came back — the job's agent did not
	// report — so the scheduler knows of no progress and charges none.
	Answered bool
	DoneMB   float64
	UsedSecs simclock.Duration
	Finished bool

	pos int // index into Sim.jobs this round
	req int // index of the job's request in the round's Decision.Run
}

// Executor carries out a round's placed quanta. It is the engine's only
// seam: everything else a quantum means to the scheduler stays in Sim.
type Executor interface {
	// Execute trains every quantum's job for up to Avail seconds and
	// records the answers in place. It is called once a round, after
	// placement and validation, with the quanta in job-ID order.
	Execute(round int, qs []Quantum) error
}

// LocalExecutor simulates execution: every quantum is answered at once
// with the progress its grant allows.
type LocalExecutor struct{}

// Execute implements Executor.
func (LocalExecutor) Execute(_ int, qs []Quantum) error {
	for i := range qs {
		q := &qs[i]
		q.DoneMB, q.UsedSecs, q.Finished = job.Progress(q.Job.DoneMB(), q.Job.TotalMB, q.Job.GangRate(q.Gen), q.Avail)
		q.Answered = true
	}
	return nil
}

// execute is the round's execute phase: grant each placed job its
// quantum, let the executor carry the quanta out, settle the answers.
func (s *Sim) execute(rd *round, qs []Quantum) error {
	s.obs.PhaseStart(obs.PhaseExecute)
	s.robs.sortChoices()
	for i := range qs {
		s.grant(&qs[i], rd)
	}
	s.obs.PhaseEnd(obs.PhaseExecute)

	s.executing = true
	err := s.exec.Execute(s.rounds, qs)
	s.executing = false
	if err != nil {
		return err
	}

	rep := &s.execRep
	rep.Ran = slices.Grow(rep.Ran[:0], len(qs))
	rep.Unplaced = s.unplacedBuf
	s.obs.PhaseStart(obs.PhaseExecute)
	for i := range qs {
		q := &qs[i]
		if !q.Answered {
			continue
		}
		info := s.settle(q, false)
		rep.Ran = append(rep.Ran, info)
		s.comp[q.Job.UserAt()].occ += float64(info.Gang) * info.OccupiedSecs
	}
	s.obs.PhaseEnd(obs.PhaseExecute)
	return nil
}

// grant works out what one placed job may do this quantum: which
// overhead it pays and how much full-rate training time is left.
func (s *Sim) grant(q *Quantum, rd *round) {
	j, quantum := q.Job, s.cfg.Quantum
	q.Gen = s.cfg.Cluster.Device(q.Devs[0]).Gen
	q.Start = rd.now
	if s.robs != nil {
		why := s.robs.reasonFor(j.ID)
		d := trace.Record{At: rd.now, Kind: trace.KindDecision, Job: j.ID, User: j.User,
			Gen: q.Gen, N: int32(j.Gang), Devs: q.Devs, Name: why.reason, X: why.before, Y: why.after}
		if q.Migrated {
			d.M = 1
			d.From, _ = j.LastGen()
		}
		s.emit(d)
	}
	switch {
	case q.Migrated:
		q.Overhead = s.cfg.Costs.MigrationCost(j.Perf)
	case !j.RanLastQuantum():
		q.Overhead = s.cfg.Costs.ResumeCost()
	}
	if q.Overhead > quantum {
		q.Overhead = quantum
	}
	// A degraded server slows the whole gang: synchronous SGD moves at
	// the slowest worker, so the effective rate is the minimum slowdown
	// factor over the servers spanned (1 when nothing is degraded).
	factor := 1.0
	for _, d := range q.Devs {
		if f := s.fsweep.Factor(s.cfg.Cluster.Device(d).Server); f < factor {
			factor = f
		}
	}
	q.Eff = s.cfg.Costs.SpanPenalty(placement.ServersUsed(s.cfg.Cluster, q.Devs)) * factor
	q.Avail = (quantum - q.Overhead) * q.Eff
}

// settle turns one answered quantum into the scheduler's books: the
// job's progress and overheads, occupied versus useful time, usage,
// throughput, utilization, the timeline. late marks an answer that
// arrived after its round closed (ApplyLate): charged as the on-time
// answer would have been, but the job is not running now — run state
// and profiler stay as they are — and the time is not this round's for
// the conservation audit.
func (s *Sim) settle(q *Quantum, late bool) RanInfo {
	j, gen, now, quantum := q.Job, q.Gen, q.Start, s.cfg.Quantum
	if q.Migrated {
		j.NoteMigration()
		s.emit(trace.Record{At: now, Kind: trace.KindMigration, Job: j.ID, User: j.User,
			Gen: gen, X: s.cfg.Costs.MigrationCost(j.Perf)})
	}
	j.AddOverhead(q.Overhead)
	if lost := (quantum - q.Overhead) * (1 - q.Eff); lost > 0 {
		j.AddOverhead(lost)
	}
	if !late {
		if j.State() != job.Running {
			j.SetRunning(true)
			if !j.RanLastQuantum() && j.DoneMB() == 0 {
				s.emit(trace.Record{At: now, Kind: trace.KindStart, Job: j.ID, User: j.User, Gen: gen})
			}
		}
		j.NoteFirstRun(now)
		s.prof.Measure(j, gen)
	}
	if q.Migrated {
		// Migration serializes a checkpoint of the pre-move progress;
		// note it before advancing so a later crash rolls back to here.
		j.NoteCheckpoint(now)
	}

	used, finished := q.UsedSecs, q.Finished
	gang := float64(j.Gang)
	j.ApplyReport(q.DoneMB, gen, gang*used, finished, now.Add(q.Overhead).Add(used))
	// Occupied wall time: overhead plus useful time (de-scaled by the
	// span penalty and any degradation), capped at the quantum. A job
	// finishing mid-round releases its GPUs for accounting purposes.
	occupied := quantum
	if finished && q.Eff > 0 {
		occupied = q.Overhead + used/q.Eff
		if occupied > quantum {
			occupied = quantum
		}
	}

	if !finished {
		// Periodic checkpointing: crash-restart loses at most
		// CheckpointSecs of progress once the first interval elapses.
		j.PeriodicCheckpoint(now, now.Add(quantum), s.fcfg.CheckpointSecs)
	}

	b := &s.books[j.UserAt()]
	b.addUsage(gen, gang*occupied)
	b.useful += gang * used
	b.mb += j.GangRate(gen) * used
	b.wrote |= wroteUseful | wroteMB
	s.busyByGen[gen] += gang * occupied
	s.tl.Add(now, j.UserAt(), gang*occupied)

	info := RanInfo{
		Job: j.ID, Req: q.req, User: j.User, Gen: gen, Gang: j.Gang,
		OccupiedSecs: occupied, UsefulSecs: used,
		Migrated: q.Migrated, Finished: finished,
	}
	s.aud.checkExec(j.ID, info)
	if !late {
		s.aud.noteBusy(gen, gang*occupied)
	}
	return info
}

// ApplyLate settles a quantum whose answer arrived after its round
// closed — q is the caller's copy of the granted quantum with the answer
// filled in — so work an agent did while cut off is charged as the
// on-time answer would have been. The caller vouches that the answer is
// for this grant and not applied before; the policy is not told (its
// round is over). A job the answer finishes retires here, or in the
// running round's sweep when the executor calls from inside Execute.
func (s *Sim) ApplyLate(q *Quantum) {
	s.settle(q, true)
	if j := q.Job; j.Finished() && !s.executing {
		s.retireJob(j)
		if i, ok := slices.BinarySearchFunc(s.jobs, j.ID, func(a *job.Job, id job.ID) int { return cmp.Compare(a.ID, id) }); ok {
			s.jobs = slices.Delete(s.jobs, i, i+1)
		}
	}
}

// SetUnreachable tells the engine which servers the executor cannot
// carry a quantum out on (agents that stopped answering). From the next
// round on they count as down — excluded from capacity and placement,
// audited like a failed server — until a later call leaves them out.
// The engine reads set at each round start and does not modify it.
func (s *Sim) SetUnreachable(set *gpu.ServerSet) { s.unreachable = set }

// Rounds returns how many scheduling rounds have run.
func (s *Sim) Rounds() int { return s.rounds }

// Now returns the engine's virtual time.
func (s *Sim) Now() simclock.Time { return s.clock.Now() }

// Placement returns where each unfinished job last held devices, as a
// map built for the call from the jobs' records (job.Job.Devices): the
// engine keeps no such table. The device slices are the records' own —
// read them, never modify them.
func (s *Sim) Placement() placement.Assignment {
	a := make(placement.Assignment, len(s.jobs))
	for _, j := range s.jobs {
		if devs := j.Devices(); len(devs) > 0 {
			a[j.ID] = devs
		}
	}
	return a
}
