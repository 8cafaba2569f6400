package core

import (
	"fmt"
	"slices"

	"repro/internal/fairshare"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// round is one quantum's working state, handed from phase to phase of
// runRound. The engine keeps one and resets it every round.
type round struct {
	now simclock.Time

	// Servers out this round: down is physically failed or unreachable,
	// quar quarantined, unavail their union (what placement excludes).
	down, unavail gpu.ServerSet
	quar          *gpu.ServerSet         //gflint:noretain the breaker's own set
	deficit       []float64              //gflint:noretain s.deficit while anyone owes (debt at the round start, by user position), else nil
	caps          map[gpu.Generation]int // capacity net of unavail
	placed        *placement.Round       // this round's placement, by request position
	repays        bool                   // the decision honors the deficit
	st            RoundState             //gflint:noretain what the policy sees (see beginRound), refilled in place every round
}

// runRound executes one scheduling quantum and closes it on every path:
// a round that fails still flushes the events it got to and ends its
// open phases, so the flight dump of a failed run ends with the round
// that failed.
func (s *Sim) runRound() error {
	s.rounds++
	rd := &s.rd
	*rd = round{now: s.clock.Now(), down: rd.down, unavail: rd.unavail} // the sets keep their room
	s.obs.BeginRound(s.rounds, float64(rd.now))
	s.tl.Begin(rd.now)
	s.robs.begin()
	err := s.runPhases(rd)
	s.obs.EndRound(obs.Round{
		Events: s.flush(), Shares: s.shareSamples(),
		Active: len(s.jobs), Pending: s.evq.pendingCount(),
	})
	return err
}

// runPhases is the round, phase by phase: events and faults, the
// fairness reference, decide, place, migrate, execute, retire, settle.
// Only the execute phase knows there is an executor.
func (s *Sim) runPhases(rd *round) error {
	st := s.beginRound(rd)
	s.fairReference(rd)
	reqs, err := s.decide(rd, st)
	if err != nil {
		return err
	}
	if err := s.placeRound(rd, reqs); err != nil {
		return err
	}
	s.failMigrations(rd)
	qs := s.quanta

	s.obs.PhaseStart(obs.PhaseAudit)
	s.aud.checkAssignment(qs, &rd.down, rd.quar)
	s.obs.PhaseEnd(obs.PhaseAudit)

	if err := s.execute(rd, qs); err != nil {
		return err
	}
	// Capacity accounting for utilization, net of failed servers.
	for g, c := range rd.caps {
		s.capByGen[g] += float64(c) * s.cfg.Quantum
	}
	s.retire(rd, qs)
	s.policy.Executed(&s.execRep)
	s.settleCompensation(rd)
	s.obs.PhaseStart(obs.PhaseAudit)
	err = s.aud.endRound()
	s.obs.PhaseEnd(obs.PhaseAudit)
	return err
}

// beginRound applies the events due — ticket changes, fault
// transitions, backoff expiry, job crashes — and assembles what the
// policy sees in rd.st, the one RoundState of the run.
//
//gflint:noretain
func (s *Sim) beginRound(rd *round) *RoundState {
	now := rd.now
	s.evq.popTicketsDue(now, func(tc TicketChange) {
		s.tickets[tc.User] = tc.Tickets
		if i := s.userAt(tc.User); i >= 0 {
			s.userTickets[i] = tc.Tickets
		}
	})
	s.obs.PhaseStart(obs.PhaseFaultSweep)
	s.updateFaultState(now)
	rd.down.CopyFrom(s.fsweep.Down())
	rd.down.Union(s.unreachable)
	rd.quar = s.breaker.Set()
	s.obs.PhaseEnd(obs.PhaseFaultSweep)
	// Servers unusable this round: physically down or quarantined.
	rd.unavail.CopyFrom(&rd.down)
	rd.unavail.Union(rd.quar)

	// The job crash-restart draws, in job-ID order — with job crashes on,
	// the injector consumes one draw per job that held GPUs last quantum,
	// so the visiting order is part of the seed contract. The same walk
	// lapses the migration-failure pins that have run out.
	for _, j := range s.jobs {
		j.RefreshPin(s.rounds)
		if j.Finished() || !j.RanLastQuantum() {
			continue
		}
		if s.finj.CrashNow() {
			lost := j.Crash()
			s.emit(trace.Record{At: now, Kind: trace.KindJobCrash, Job: j.ID, User: j.User,
				X: lost, N: int32(j.Crashes())})
		}
	}
	// The books open on a new round. The policy sees the debt as of the
	// round start; losses accrued this round become visible (and
	// repayable) next round.
	if s.compOpen > 0 {
		rd.deficit = s.deficit
	}
	for i := range s.comp {
		c := &s.comp[i]
		c.loss, c.occ = 0, 0
		if rd.deficit != nil {
			rd.deficit[i] = c.debt
		}
	}

	rd.st = RoundState{
		Now:     now,
		Quantum: s.cfg.Quantum,
		Cluster: s.cfg.Cluster,
		Jobs:    s.jobs,
		Tickets: s.tickets,
		Prof:    s.prof,

		MigrationDisabled: s.cfg.DisableMigration,
		Down:              &rd.down,
		Quarantined:       rd.quar,
		Deficit:           rd.deficit,
		Obs:               s.robs,
	}
	st := &rd.st
	rd.caps = st.CapacityByGen()
	st.caps = rd.caps // the policy's CapacityByGen call reuses it
	s.aud.beginRound(s.rounds, now, rd.caps, s.tickets)
	if s.cfg.AuditDrillRound == s.rounds && s.aud.on() {
		s.aud.violate(InvDrill, "operator-requested audit drill")
	}
	return st
}

// fairReference integrates the policy-independent fairness reference
// for this round, water-filled over the capacity actually available
// (failed servers excluded). A user the fill does not reach is charged
// nothing and, until it first does, has no fair-usage entry.
func (s *Sim) fairReference(rd *round) {
	s.obs.PhaseStart(obs.PhaseWaterfill)
	availTotal := 0.0
	for g := range gpu.NumGenerations {
		availTotal += float64(rd.caps[gpu.Generation(g)])
	}
	fairshare.WaterFill(s.userTickets, s.demand, availTotal, s.shares, s.pending)
	for i, sh := range s.shares {
		if sh == fairshare.Unreached {
			s.shares[i] = 0
			continue
		}
		b := &s.books[i]
		b.fair += sh * s.cfg.Quantum
		b.wrote |= wroteFair
	}
	s.obs.PhaseEnd(obs.PhaseWaterfill)
}

// decide asks the policy for the round's requests and holds it to its
// contract.
func (s *Sim) decide(rd *round, st *RoundState) ([]placement.Request, error) {
	s.obs.PhaseStart(obs.PhaseDecide)
	dec := s.policy.Decide(st)
	if err := s.checkDecision(dec, rd.caps); err != nil {
		return nil, err
	}
	s.obs.PhaseEnd(obs.PhaseDecide)
	s.aud.checkTrades(dec.Trades)
	rd.repays = dec.Repays
	for _, tr := range dec.Trades {
		s.emit(trace.Record{At: rd.now, Kind: trace.KindTrade, User: tr.Buyer, Name: string(tr.Seller),
			Gen: tr.Fast, From: tr.Slow, X: tr.FastGPUs, Y: tr.SlowGPUs, Z: tr.Price})
	}
	return dec.Run, nil
}

// placeIndexed is the maintained placement: the index carries
// availability and last round's holders as its state and takes the
// delta against both out of the full sets itself.
//
//gflint:noretain
func (s *Sim) placeIndexed(unavail *gpu.ServerSet, reqs []placement.Request, opts placement.Options) *placement.Round {
	s.pidx.SyncUnavail(unavail)
	return s.pidx.PlaceRound(reqs, opts)
}

// placeRound assigns devices and builds the round's execute list,
// s.quanta, in job-ID order, not request order: settling a quantum
// consumes draws from the shared profiling RNG, so the processing order
// decides which job sees which noise sample. s.jobs is already sorted,
// and the request column says where each job's request is, so filtering
// it against the round's marks yields the order a sort would — for the
// requests that do not run, s.unplacedBuf, too. Each job's devices are
// validated on the way, so the first violation reported is the lowest
// job ID's.
func (s *Sim) placeRound(rd *round, reqs []placement.Request) error {
	s.obs.PhaseStart(obs.PhasePlacement)
	rd.placed = s.place(&rd.unavail, reqs,
		placement.Options{AllowMigration: !s.cfg.DisableMigration})
	marks := rd.placed.Marks
	qs, unplaced := slices.Grow(s.quanta[:0], len(reqs)), s.unplacedBuf[:0]
	s.owners.Begin()
	for i, j := range s.jobs {
		at := int(s.reqAt[j.Slot()]) - 1
		if at < 0 {
			continue
		}
		if marks[at] == placement.Unplaced {
			unplaced = append(unplaced, j.ID)
			continue
		}
		devs := j.Devices()
		if err := s.owners.ValidateJob(j.ID, devs); err != nil {
			return fmt.Errorf("core: round %d: %w", s.rounds, err)
		}
		qs = append(qs, Quantum{Job: j, Devs: devs, Migrated: marks[at] == placement.Moved, pos: i, req: at})
	}
	s.quanta, s.unplacedBuf = qs, unplaced
	s.obs.PhaseEnd(obs.PhasePlacement)
	return nil
}

// failMigrations injects migration failures: each migration attempt may
// fail — the job pays the copy cost on its reserved target devices but
// stays put, retrying later under capped exponential backoff. Draws
// happen in job-ID order, the order placement lists the movers in — so
// s.migFailedBuf, the round's failed movers, comes out sorted too. They
// give the target devices back, are again last seen where they came
// from, and leave the execute list.
func (s *Sim) failMigrations(rd *round) {
	s.obs.PhaseStart(obs.PhaseMigrate)
	migFailed := s.migFailedBuf[:0]
	for _, m := range rd.placed.Moved {
		j := m.Job
		if !s.finj.MigrationFails() {
			j.ClearMigrationFailures()
			continue
		}
		gen := s.cfg.Cluster.Device(j.Devices()[0]).Gen
		gang := float64(j.Gang)
		cost := s.cfg.Costs.MigrationCost(j.Perf)
		if cost > s.cfg.Quantum {
			cost = s.cfg.Quantum
		}
		// The attempt held its reserved target devices for the
		// checkpoint copy: occupied time is charged, no progress made,
		// and the rest of the quantum is lost to the fault.
		j.AddOverhead(cost)
		s.books[j.UserAt()].addUsage(gen, gang*cost)
		s.busyByGen[gen] += gang * cost
		s.tl.Add(rd.now, j.UserAt(), gang*cost)
		s.aud.noteBusy(gen, gang*cost)
		books := &s.comp[j.UserAt()]
		books.occ += gang * cost
		books.loss += gang * (s.cfg.Quantum - cost)
		fails := j.MigrationFailures() + 1
		backoff := faults.Backoff(s.fcfg, fails)
		j.NoteMigrationFailed(s.rounds + backoff)
		migFailed = append(migFailed, j.ID)
		s.pidx.Release(j)
		j.SetDevices(m.From, 0)
		s.emit(trace.Record{At: rd.now, Kind: trace.KindMigFail, Job: j.ID, User: j.User,
			N: int32(fails), M: int32(backoff), X: cost})
	}
	if len(migFailed) > 0 {
		s.unplacedBuf = append(s.unplacedBuf, migFailed...)
		slices.Sort(s.unplacedBuf)
		s.quanta = slices.DeleteFunc(s.quanta, func(q Quantum) bool { // the failed movers do not run
			_, failed := slices.BinarySearch(migFailed, q.Job.ID)
			return failed
		})
	}
	s.migFailedBuf = migFailed
	s.obs.PhaseEnd(obs.PhaseMigrate)
	if n := len(s.unplacedBuf); n > 0 {
		s.emit(trace.Record{At: rd.now, Kind: trace.KindUnplaced, N: int32(n)})
	}
}

// retire does the quantum bookkeeping on every active job, then retires
// finished ones. It walks jobs in ID order, not map order: retirement
// appends finish events to the trace, and map iteration would let two
// jobs finishing in the same round swap log positions between runs.
// The sweep compacts s.jobs in place behind itself. Where each job last
// held devices — next round's stability baseline — is already on its
// record: placement put a dispatched job's new devices there (its
// checkpoint went there, answered or not), a job that went unplaced
// keeps its old ones (its checkpoint state lives on that server, and the
// no-migration mode pins it there), and a finished job is never asked
// for again, which is what makes the index give its devices back.
func (s *Sim) retire(rd *round, qs []Quantum) {
	live := s.jobs[:0]
	next := 0
	serversOut := rd.unavail.Len() > 0 // else no job is stranded
	for i, j := range s.jobs {
		var q *Quantum
		if next < len(qs) && qs[next].pos == i {
			q = &qs[next]
			next++
		}
		if j.Finished() {
			s.retireJob(j)
			continue
		}
		live = append(live, j)
		if q != nil {
			j.NoteDispatch(q.Gen)
		}
		// ran: the quantum was placed and its executor answered for it.
		ran := q != nil && q.Answered
		if j.State() == job.Running && !ran {
			j.SetRunning(false)
			// Suspension serializes the job (Gandiva's suspend is
			// checkpoint-based), so its progress becomes durable.
			j.NoteCheckpoint(rd.now)
		}
		if !ran && serversOut {
			// A job stranded because its servers are down, unreachable or
			// quarantined loses the whole quantum of occupied share to the
			// fault — that shortfall becomes its user's compensation debt.
			// (Failed migrations were already charged above.)
			if _, migFailedNow := slices.BinarySearch(s.migFailedBuf, j.ID); !migFailedNow {
				for _, d := range j.Devices() {
					if rd.unavail.Has(s.cfg.Cluster.Device(d).Server) {
						s.comp[j.UserAt()].loss += float64(j.Gang) * s.cfg.Quantum
						break
					}
				}
			}
		}
		j.NoteQuantum(ran)
	}
	clear(s.jobs[len(live):]) // drop the retired jobs' pointers
	s.jobs = live
}

// retireJob removes a finished job from every engine structure but
// s.jobs, which the caller compacts.
func (s *Sim) retireJob(j *job.Job) {
	id := j.ID
	s.finished = append(s.finished, j)
	s.emit(trace.Record{At: j.FinishTime(), Kind: trace.KindFinish, Job: id, User: j.User,
		X: j.JCT(), N: int32(j.Migrations())})
	s.policy.JobFinished(id)
	s.prof.Remove(j)
	s.slots[j.Slot()] = nil
	s.free = append(s.free, int32(j.Slot()))
	s.demand[j.UserAt()] -= float64(j.Gang)
	s.comp[j.UserAt()].jobs--
}

// settleCompensation closes the round's failure-compensation books, one
// pass over the records in user order: each user's raw fault loss is
// capped at their share shortfall, repayments drain the debt, this
// round's fault losses add to it, the auditor checks the arithmetic, and
// users who have fully departed are forgiven. A user with no debt and no
// loss is not on the round's books at all.
//
// Repayment is recognized by materialization, not by grant: when the
// policy participates in compensation (Decision.Repays), a
// debtor's occupied time beyond their fair reference this round drains
// the debt, capped at what is owed. Grants flow through the policy's
// credit accounting and surface as excess occupancy over the following
// rounds, so recognizing the excess — rather than the grant — keeps a
// deficit alive when placement could not realize the grant
// (fragmentation, pinned jobs) and retires it exactly as fast as the
// user actually catches up.
func (s *Sim) settleCompensation(rd *round) {
	for i := range s.comp {
		c := &s.comp[i]
		// Cap the raw fault loss at the user's actual share shortfall this
		// round (fair entitlement minus occupied time). A user whose
		// other jobs soaked up their full water-filled share lost nothing
		// in the fairness currency, and compensating the per-job loss
		// anyway would push them above the reference. s.shares is still
		// the round's water-fill.
		fair := s.shares[i] * s.cfg.Quantum
		lost := min(c.loss, max(fair-c.occ, 0))
		if c.debt == 0 && lost == 0 {
			continue // nothing on this user's books this round
		}
		before := c.debt
		var r float64
		if rd.repays && before > 0 {
			r = min(max(c.occ-fair, 0), before)
		}
		c.debt = before + lost - r
		if c.debt <= 1e-9 {
			c.debt = 0
		}
		s.compRepaid += r
		s.emit(trace.Record{At: rd.now, Kind: trace.KindComp, User: c.user, X: c.debt, Y: r})
		s.aud.checkCompensation(c.user, before, lost, r, c.debt)
	}
	// Forgive debt of users with no jobs left in the system — there is
	// no demand to repay into, and carrying the deficit forever would
	// poison the monotone-drain invariant for reappearing user names.
	// What stays owed is what the next round's policy is shown.
	s.compOpen = 0
	for i := range s.comp {
		switch c := &s.comp[i]; {
		case c.debt == 0:
		case c.jobs > 0:
			s.compOpen++
		default:
			c.debt = 0
			s.emit(trace.Record{At: rd.now, Kind: trace.KindComp, User: c.user})
		}
	}
}

// shareSamples is the round's per-user share sample for the observer:
// observed and water-filled entitlement fractions of every user with
// usage, sorted by user. The slice is reused every round; nil when
// uninstrumented.
//
//gflint:noretain
func (s *Sim) shareSamples() []obs.ShareSample {
	if s.obs == nil {
		return nil
	}
	var usedTotal, fairTotal float64
	out := s.shareBuf[:0]
	for i, u := range s.users {
		b := &s.books[i]
		fairTotal += b.fair
		if b.wrote&wroteUsage == 0 {
			continue
		}
		used := 0.0
		for _, v := range b.usage {
			used += v
		}
		usedTotal += used
		out = append(out, obs.ShareSample{User: string(u), Usage: used, Fair: b.fair})
	}
	for i := range out { // a zero total means every term of it is zero already
		if usedTotal > 0 {
			out[i].Usage /= usedTotal
		}
		if fairTotal > 0 {
			out[i].Fair /= fairTotal
		}
	}
	s.shareBuf = out
	return out
}

// updateFaultState advances the compiled fault timeline to now, which
// keeps the sampled down set, feeds the quarantine breaker, and records
// every transition.
func (s *Sim) updateFaultState(now simclock.Time) {
	server := func(kind trace.Kind, sid gpu.ServerID) {
		s.emit(trace.Record{At: now, Kind: kind, N: int32(sid)})
	}
	// Release expired quarantines before noting new failures so a
	// server can be re-observed the round it is freed.
	for _, sid := range s.breaker.ExpireStep(now) {
		server(trace.KindUnquarantine, sid)
	}
	for _, tr := range s.fsweep.Advance(now) {
		switch {
		case tr.Slow && tr.Factor < 1:
			s.emit(trace.Record{At: now, Kind: trace.KindDegrade, N: int32(tr.Server), X: tr.Factor})
		case tr.Slow:
			server(trace.KindDegradeEnd, tr.Server)
		case tr.Down:
			server(trace.KindFailure, tr.Server)
			if s.breaker.NoteFailure(tr.Server, now) {
				server(trace.KindQuarantine, tr.Server)
			}
		default:
			server(trace.KindRecovery, tr.Server)
		}
	}
}

// checkDecision enforces the policy contract: known runnable jobs,
// no duplicates, per-generation gang totals within capacity, and
// every job placed on a generation it fits. Known is the very record
// the slot table has where the record says it is — a copy, another
// engine's record or a retired one is not — and each accepted job's
// position in dec.Run goes into the request column, which is also how a
// second request for it shows.
func (s *Sim) checkDecision(dec Decision, caps map[gpu.Generation]int) error {
	var width [gpu.NumGenerations]int
	s.reqAt = resize(s.reqAt, len(s.slots))
	clear(s.reqAt)
	for i, r := range dec.Run {
		if r.Job == nil {
			return fmt.Errorf("core: policy returned nil job")
		}
		at := r.Job.Slot()
		if at >= len(s.slots) || s.slots[at] != r.Job {
			return fmt.Errorf("core: policy scheduled unknown job %d", r.Job.ID)
		}
		if s.reqAt[at] != 0 {
			return fmt.Errorf("core: policy scheduled job %d twice", r.Job.ID)
		}
		s.reqAt[at] = int32(i) + 1
		if !r.Job.Perf.FitsOn(r.Gen) {
			return fmt.Errorf("core: policy put job %d on unusable generation %v", r.Job.ID, r.Gen)
		}
		width[r.Gen] += r.Job.Gang
	}
	for g, w := range width {
		if gen := gpu.Generation(g); w > caps[gen] {
			return fmt.Errorf("core: policy overcommitted %v: %d > %d", gen, w, caps[gen])
		}
	}
	return nil
}
