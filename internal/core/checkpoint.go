package core

import (
	"fmt"
	"maps"
	"math"
	"slices"

	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/profiler"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// Checkpoint is the engine state a restarted coordinator resumes from:
// the clock, the event streams not yet consumed, every job's record,
// where jobs last ran, tickets, the usage books and the compensation
// debt each user still owes. Job records carry the same checkpoint the
// wire protocol ships to agents, so a restored engine re-dispatches from
// exactly the progress it had acknowledged. What is rebuilt instead of
// saved: the policy's round-to-round books (unless the same policy is
// handed to Restore, see there), the profiler's estimates (jobs are
// probed again), the trace log, timeline and audit report (they restart
// empty), the fault counters and total repaid (they restart at zero),
// and the breaker's and injector's state (they restart as New builds
// them).
type Checkpoint struct {
	Now           simclock.Time             `json:"now"`
	Rounds        int                       `json:"rounds"`
	Pending       []job.Spec                `json:"pending,omitempty"`
	TicketChanges []TicketChange            `json:"ticket_changes,omitempty"`
	Active        []job.Checkpoint          `json:"active,omitempty"`
	Done          []job.Checkpoint          `json:"done,omitempty"`
	Prev          map[job.ID][]gpu.DeviceID `json:"prev,omitempty"`
	Tickets       map[job.UserID]float64    `json:"tickets,omitempty"`

	Usage      map[job.UserID]map[gpu.Generation]float64 `json:"usage,omitempty"`
	Useful     map[job.UserID]float64                    `json:"useful,omitempty"`
	FairUsage  map[job.UserID]float64                    `json:"fair_usage,omitempty"`
	Throughput map[job.UserID]float64                    `json:"throughput,omitempty"`
	Busy       [gpu.NumGenerations]float64               `json:"busy"`
	Capacity   [gpu.NumGenerations]float64               `json:"capacity"`
	Migrations int                                       `json:"migrations,omitempty"`
	Trades     int                                       `json:"trades,omitempty"`

	// CompDebt is each debtor's outstanding failure-compensation debt in
	// occupied GPU-seconds (Result.CompDeficitByUser).
	CompDebt map[job.UserID]float64 `json:"comp_debt,omitempty"`
}

// Checkpoint captures the engine's state. Call between rounds.
func (s *Sim) Checkpoint() *Checkpoint {
	useful, fair, mb := s.scalarBooks()
	cp := &Checkpoint{
		Now:           s.clock.Now(),
		Rounds:        s.rounds,
		Pending:       slices.Clone(s.evq.specs[s.evq.nextSpec:]),
		TicketChanges: slices.Clone(s.evq.changes[s.evq.nextChange:]),
		Prev:          make(map[job.ID][]gpu.DeviceID, len(s.jobs)),
		Tickets:       maps.Clone(s.tickets),
		Usage:         s.checkpointUsage(),
		Useful:        useful,
		FairUsage:     fair,
		Throughput:    mb,
		Busy:          s.busyByGen,
		Capacity:      s.capByGen,
		Migrations:    s.recorded[trace.KindMigration.LogIndex()],
		Trades:        s.recorded[trace.KindTrade.LogIndex()],
		CompDebt:      s.resultDeficit(),
	}
	for _, j := range s.jobs { // job-ID order: deterministic file contents
		cp.Active = append(cp.Active, j.Checkpoint())
		if devs := j.Devices(); len(devs) > 0 {
			cp.Prev[j.ID] = slices.Clone(devs)
		}
	}
	for _, j := range s.finished {
		cp.Done = append(cp.Done, j.Checkpoint())
	}
	return cp
}

// Restore rebuilds an engine from a checkpoint. cfg supplies what a
// checkpoint does not hold — cluster, quantum, costs, audit mode,
// instrumentation; its Specs, Tickets and TicketChanges are replaced by
// the checkpoint's, and the whole is validated as New validates it (a
// job listed twice, or one the cluster cannot place, is an error), and
// so are the clock, the books and where the jobs last ran (see
// checkClock and checkBooks).
//
// The restored engine's jobs are new records with the checkpoint's IDs.
// A fresh policy starts its books over. A FairPolicy that ran under the
// checkpointed engine may be handed in instead: at its first round it
// rebinds its record of each job to the new one, and the users' credit,
// the jobs' stride passes and migration cooldowns carry over. The
// restored jobs start unprofiled whichever profiler is handed in: a
// profiler finds a job's estimates through the job's record
// (job.Job.ProfileAt), and these records are new.
func Restore(cfg Config, policy Policy, exec Executor, prof *profiler.Profiler, cp *Checkpoint) (*Sim, error) {
	if cp == nil {
		return nil, fmt.Errorf("core: nil checkpoint")
	}
	cfg.Specs = slices.Clone(cp.Pending)
	for _, jc := range cp.Active {
		cfg.Specs = append(cfg.Specs, jc.Spec)
	}
	for _, jc := range cp.Done {
		cfg.Specs = append(cfg.Specs, jc.Spec)
	}
	cfg.Tickets, cfg.TicketChanges = cp.Tickets, cp.TicketChanges
	s, err := newEngine(cfg, policy, exec, prof, cp.Pending)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint: %w", err)
	}
	// A job's migration backoff holds round numbers as int32; half that
	// range is left for the rounds ahead.
	if !finite(float64(cp.Now)) || cp.Now < 0 || cp.Rounds < 0 || cp.Rounds > math.MaxInt32/2 || cp.Migrations < 0 || cp.Trades < 0 {
		return nil, fmt.Errorf("core: checkpoint at round %d, t=%v with %d migrations and %d trades",
			cp.Rounds, cp.Now, cp.Migrations, cp.Trades)
	}
	if err := s.checkClock(cp); err != nil {
		return nil, err
	}
	if err := s.checkBooks(cp); err != nil {
		return nil, err
	}
	s.clock.RunUntil(cp.Now)
	s.rounds = cp.Rounds
	for _, jc := range cp.Active {
		j, err := job.FromCheckpoint(jc)
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint active: %w", err)
		}
		if j.Finished() {
			return nil, fmt.Errorf("core: checkpoint lists finished job %d as active", j.ID)
		}
		s.admit(j)
	}
	for _, jc := range cp.Done {
		j, err := job.FromCheckpoint(jc)
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint done: %w", err)
		}
		if !j.Finished() {
			return nil, fmt.Errorf("core: checkpoint lists unfinished job %d as done", j.ID)
		}
		s.finished = append(s.finished, j)
		s.comp[s.userAt(j.User)].jobs-- // New counted its spec as still to run
	}
	// In job-ID order, so several bad entries report the lowest job's; an
	// entry for a job no longer active (finished or lost) is ignored.
	for _, j := range s.jobs {
		devs := cp.Prev[j.ID]
		for _, d := range devs {
			if int(d) < 0 || int(d) >= cfg.Cluster.NumDevices() {
				return nil, fmt.Errorf("core: checkpoint places job %d on unknown device %d", j.ID, d)
			}
		}
		if len(devs) == 0 {
			continue
		}
		// Sorted, as placement leaves them, and held by nobody: the new
		// engine's index starts empty, so every job contends for its old
		// place as Place's phase 1 would have it. The generation a job last
		// ran on is its devices'. Placement leaves a job on its gang of
		// distinct devices of one generation its model fits, nowhere else.
		last := slices.Clone(devs)
		slices.Sort(last)
		g := cfg.Cluster.Device(last[0]).Gen
		ok := len(last) == j.Gang && j.Perf.FitsOn(g)
		for i := 1; ok && i < len(last); i++ {
			ok = last[i] != last[i-1] && cfg.Cluster.Device(last[i]).Gen == g
		}
		if !ok {
			return nil, fmt.Errorf("core: checkpoint places job %d (gang %d, model %s) on devices %v", j.ID, j.Gang, j.Perf.Model, devs)
		}
		j.SetDevices(last, 0)
		j.NoteDispatch(g)
	}
	for u, byGen := range cp.Usage {
		b := &s.books[s.userAt(u)]
		for g, v := range byGen {
			b.addUsage(g, v)
		}
	}
	for u, v := range cp.Useful {
		b := &s.books[s.userAt(u)]
		b.useful = v
		b.wrote |= wroteUseful
	}
	for u, v := range cp.FairUsage {
		b := &s.books[s.userAt(u)]
		b.fair = v
		b.wrote |= wroteFair
	}
	for u, v := range cp.Throughput {
		b := &s.books[s.userAt(u)]
		b.mb = v
		b.wrote |= wroteMB
	}
	// A debt whose user has no job left is forgiven at the next round's
	// settlement, as the engine would have done; until then it is open.
	for u, v := range cp.CompDebt {
		if v > 0 {
			s.comp[s.userAt(u)].debt = v
			s.compOpen++
		}
	}
	s.busyByGen, s.capByGen = cp.Busy, cp.Capacity
	s.recorded[trace.KindMigration.LogIndex()], s.recorded[trace.KindTrade.LogIndex()] = cp.Migrations, cp.Trades
	return s, nil
}

// checkClock refuses a clock no run of cp.Rounds rounds reaches. Time
// moves a quantum per round, and an idle engine jumps to the next
// arrival, which it then admits, at most a quantum later; so the clock
// is at most the latest admitted job's arrival plus a quantum per round
// and one more. One further quantum absorbs the rounding of the sum.
func (s *Sim) checkClock(cp *Checkpoint) error {
	var last simclock.Time
	for _, jcs := range [][]job.Checkpoint{cp.Active, cp.Done} {
		for i := range jcs {
			last = max(last, jcs[i].Spec.Arrival)
		}
	}
	if reach := last.Add(float64(cp.Rounds+2) * s.cfg.Quantum); cp.Now > reach {
		return fmt.Errorf("core: checkpoint clock %v is past %v, where %d rounds after the last arrival reach", cp.Now, reach, cp.Rounds)
	}
	return nil
}

// checkBooks refuses books no engine writes: a usage or debt entry for
// a user the checkpoint's jobs do not name or for a generation outside
// the model, or a value in any book — the per-generation busy and
// capacity totals included — that is negative, NaN or infinite. It runs
// before anything is restored, and reports the first bad entry in user
// and generation order.
func (s *Sim) checkBooks(cp *Checkpoint) error {
	bad := func(v float64) bool { return v < 0 || !finite(v) }
	for g := range cp.Busy {
		if bad(cp.Busy[g]) || bad(cp.Capacity[g]) {
			return fmt.Errorf("core: checkpoint has %v busy of %v capacity on %v", cp.Busy[g], cp.Capacity[g], gpu.Generation(g))
		}
	}
	for _, u := range job.SortedUsers(cp.Usage) {
		if s.userAt(u) < 0 {
			return fmt.Errorf("core: checkpoint usage for unknown user %q", u)
		}
		byGen := cp.Usage[u]
		gens := make([]gpu.Generation, 0, len(byGen))
		for g := range byGen {
			gens = append(gens, g)
		}
		slices.Sort(gens)
		for _, g := range gens {
			if v := byGen[g]; !g.Valid() || bad(v) {
				return fmt.Errorf("core: checkpoint usage for %q on %v is %v", u, g, v)
			}
		}
	}
	for _, book := range []struct {
		name string
		m    map[job.UserID]float64
	}{{"useful", cp.Useful}, {"fair usage", cp.FairUsage}, {"throughput", cp.Throughput}, {"compensation debt", cp.CompDebt}} {
		for _, u := range job.SortedUsers(book.m) {
			if s.userAt(u) < 0 {
				return fmt.Errorf("core: checkpoint %s for unknown user %q", book.name, u)
			}
			if v := book.m[u]; bad(v) {
				return fmt.Errorf("core: checkpoint %s for %q is %v", book.name, u, v)
			}
		}
	}
	return nil
}
