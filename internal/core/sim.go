package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/fairshare"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/migrate"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/placement"
	"repro/internal/profiler"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// Config drives one simulation.
type Config struct {
	Cluster *gpu.Cluster
	Specs   []job.Spec

	// Tickets per user; users missing from the map default to 1.
	Tickets map[job.UserID]float64

	// Quantum is the scheduling interval in seconds. Zero means the
	// default 360 s (minute-scale time-slicing, as in Gandiva).
	Quantum simclock.Duration

	// Costs is the suspend/resume/migration cost model. The zero
	// value means migrate.Default().
	Costs migrate.CostModel

	// DisableMigration pins previously-run jobs to their servers (the
	// no-migration ablation).
	DisableMigration bool

	// ProfilerNoise is the relative std-dev of one rate measurement;
	// ProfilerAlpha the EWMA weight. Zeros mean 0.03 and 0.25.
	ProfilerNoise float64
	ProfilerAlpha float64

	// TimelineWindow is the share-timeline bucket width; zero means
	// one hour.
	TimelineWindow simclock.Duration

	// Failures injects server outages: during [At, At+Duration) the
	// server's GPUs are unplaceable and jobs running there are
	// displaced — restarting from checkpoint elsewhere when migration
	// is allowed, waiting for the server otherwise.
	Failures []Failure

	// Faults enables the probabilistic fault model (generated server
	// crashes, flaky servers, GPU degradation, job crash-restart,
	// migration failure) plus the quarantine circuit breaker and
	// failure compensation. Declared Failures above are compiled into
	// the same schedule. Nil — the default — keeps the engine's
	// legacy behavior byte-identical; a non-nil zero Config enables
	// only the compensation accounting for declared failures.
	Faults *faults.Config

	// TicketChanges reconfigures a user's tickets at runtime (an
	// operator action the paper's ticket model supports); each change
	// applies from the first round at or after At.
	TicketChanges []TicketChange

	// Audit selects the runtime invariant auditor's mode. The zero
	// value is AuditStrict: every round is checked and the first
	// violation aborts the run. Use AuditCount for long production
	// sweeps (violations are tallied in Result.Audit instead) or
	// AuditOff to disable checking.
	Audit AuditMode

	// Obs attaches a live observer (metrics, phase profiling,
	// explained decisions). Nil — the default — disables
	// instrumentation entirely; with a fixed seed, output is
	// byte-identical either way because the observer only reads
	// engine state and never feeds anything back.
	Obs *obs.Observer

	// Flight attaches a flight recorder: the Observer feeds it one
	// snapshot per round (spans, decisions, trades, fault events,
	// shares), and Run dumps it to its file on an audit violation, any
	// other round-loop error, or a panic. Requires Obs to be set for
	// per-round capture; the failure-dump path works regardless. Like
	// Obs, it only ever reads engine state.
	Flight *flight.Recorder

	// AuditDrillRound, when positive, injects one synthetic "drill"
	// audit violation at that round (rounds count from 1). It
	// exercises the violation → flight-dump → abort path end to end
	// without corrupting any real invariant; CI uses it to assert a
	// red run leaves a parseable flight.json behind.
	AuditDrillRound int

	// TraceCap bounds the event log to the most recent TraceCap
	// events (ring semantics, oldest dropped). Zero means unlimited —
	// the historical behavior, which long sweeps may want to cap.
	TraceCap int

	// Seed feeds all randomness (profiling noise).
	Seed int64

	// Engine selects the round-loop implementation. The zero value is
	// EngineIncremental; EngineRescan keeps the legacy full-rescan
	// loop for differential testing. Both produce byte-identical
	// output for the same config and seed.
	Engine EngineMode
}

// Failure is one injected server outage.
type Failure struct {
	Server   gpu.ServerID
	At       simclock.Time
	Duration simclock.Duration
}

// TicketChange reassigns a user's tickets at a point in time.
type TicketChange struct {
	At      simclock.Time
	User    job.UserID
	Tickets float64
}

func (c Config) withDefaults() Config {
	if c.Quantum == 0 {
		c.Quantum = 360
	}
	if (c.Costs == migrate.CostModel{}) {
		c.Costs = migrate.Default()
	}
	if c.ProfilerNoise == 0 {
		c.ProfilerNoise = 0.03
	}
	if c.ProfilerAlpha == 0 {
		c.ProfilerAlpha = 0.25
	}
	if c.TimelineWindow == 0 {
		c.TimelineWindow = simclock.Hour
	}
	return c
}

// Validate checks the config.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Cluster == nil {
		return fmt.Errorf("core: nil cluster")
	}
	if len(c.Specs) == 0 {
		return fmt.Errorf("core: no jobs")
	}
	seen := make(map[job.ID]bool, len(c.Specs))
	for i := range c.Specs {
		if err := c.Specs[i].Validate(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
		if seen[c.Specs[i].ID] {
			return fmt.Errorf("core: duplicate job ID %d", c.Specs[i].ID)
		}
		seen[c.Specs[i].ID] = true
		fits := false
		for _, g := range c.Cluster.GensPresent() {
			if c.Specs[i].Perf.FitsOn(g) {
				fits = true
				break
			}
		}
		if !fits {
			return fmt.Errorf("core: job %d fits no generation in the cluster", c.Specs[i].ID)
		}
		// A gang runs on devices of a single generation, so it must
		// fit within some one generation it can use — total cluster
		// size is not enough.
		placeable := false
		for _, g := range c.Cluster.GensPresent() {
			if c.Specs[i].Perf.FitsOn(g) && c.Specs[i].Gang <= c.Cluster.Capacity(g) {
				placeable = true
				break
			}
		}
		if !placeable {
			return fmt.Errorf("core: job %d gang %d exceeds every usable generation's capacity",
				c.Specs[i].ID, c.Specs[i].Gang)
		}
	}
	if c.Quantum <= 0 {
		return fmt.Errorf("core: non-positive quantum")
	}
	if err := c.Costs.Validate(); err != nil {
		return err
	}
	for u, t := range c.Tickets {
		if t < 0 {
			return fmt.Errorf("core: user %s has negative tickets", u)
		}
	}
	for _, f := range c.Failures {
		if int(f.Server) < 0 || int(f.Server) >= c.Cluster.NumServers() {
			return fmt.Errorf("core: failure names unknown server %d", f.Server)
		}
		if f.At < 0 || f.Duration <= 0 {
			return fmt.Errorf("core: failure on server %d has invalid window", f.Server)
		}
	}
	for _, tc := range c.TicketChanges {
		if tc.User == "" || tc.Tickets < 0 || tc.At < 0 {
			return fmt.Errorf("core: invalid ticket change %+v", tc)
		}
	}
	if c.Audit != AuditStrict && c.Audit != AuditCount && c.Audit != AuditOff {
		return fmt.Errorf("core: invalid audit mode %d", int(c.Audit))
	}
	if !c.Engine.valid() {
		return fmt.Errorf("core: invalid engine mode %d", int(c.Engine))
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	if c.TraceCap < 0 {
		return fmt.Errorf("core: negative TraceCap %d", c.TraceCap)
	}
	if c.AuditDrillRound < 0 {
		return fmt.Errorf("core: negative AuditDrillRound %d", c.AuditDrillRound)
	}
	return nil
}

// Result collects a finished simulation's outputs.
type Result struct {
	Policy string

	// Finished jobs, in completion order; Unfinished counts jobs
	// still incomplete at the horizon.
	Finished   []*job.Job
	Unfinished int

	// UsageByUserGen is occupied GPU-seconds per user per generation
	// (the fairness currency: time GPUs were held, including
	// overheads).
	UsageByUserGen map[job.UserID]map[gpu.Generation]float64

	// UsefulByUser is minibatch-productive gang-GPU-seconds.
	UsefulByUser map[job.UserID]float64

	// FairUsageByUser is the policy-independent fairness reference:
	// each round the engine water-fills total capacity over the
	// active users' demands by tickets and integrates the result.
	// Comparing observed usage against this accounts for churn and
	// demand caps, unlike a static equal-split ideal.
	FairUsageByUser map[job.UserID]float64

	// ThroughputByUser is total minibatches completed per user.
	ThroughputByUser map[job.UserID]float64

	Utilization metrics.Utilization
	UtilByGen   map[gpu.Generation]metrics.Utilization

	Migrations int
	TradeCount int

	// Fault-model outcomes (all zero when Config.Faults was nil).
	Crashes           int // job crash-restart events
	MigrationFailures int // failed migration attempts
	Quarantines       int // quarantine circuit-breaker trips

	// CompDeficitByUser is the failure-compensation debt still
	// outstanding at the horizon, in occupied GPU-seconds (nil when
	// the fault model was off; empty when every loss was repaid or
	// forgiven on departure).
	CompDeficitByUser map[job.UserID]float64

	// CompRepaidGPUSeconds is the total failure-compensation debt
	// repaid over the run, in occupied GPU-seconds.
	CompRepaidGPUSeconds float64

	Timeline *metrics.Timeline
	Log      *trace.Log
	Rounds   int
	End      simclock.Time

	// SLO carries the run's service-level metrics: per-user
	// finish-time fairness ρ (Themis), makespan, and JCT quantiles
	// over finished jobs.
	SLO metrics.SLO

	// PhaseTotalsSeconds is cumulative wall-clock scheduler time per
	// phase (see obs.Phase) — nil unless Config.Obs was set.
	PhaseTotalsSeconds map[string]float64

	// Audit is the invariant auditor's report for the run; nil only
	// when the config disabled auditing (AuditOff).
	Audit *AuditReport
}

// TotalUsageByUser sums occupied GPU-seconds across generations.
func (r *Result) TotalUsageByUser() map[job.UserID]float64 {
	out := make(map[job.UserID]float64, len(r.UsageByUserGen))
	for u, byGen := range r.UsageByUserGen {
		for _, g := range gpu.Generations() {
			out[u] += byGen[g]
		}
	}
	return out
}

// TotalOccupied sums occupied GPU-seconds over all users and
// generations.
func (r *Result) TotalOccupied() float64 {
	var t float64
	for _, u := range job.SortedUsers(r.UsageByUserGen) {
		byGen := r.UsageByUserGen[u]
		for _, g := range gpu.Generations() {
			t += byGen[g]
		}
	}
	return t
}

// TotalUseful sums useful (non-overhead) GPU-seconds over all users.
func (r *Result) TotalUseful() float64 {
	var t float64
	for _, u := range job.SortedUsers(r.UsefulByUser) {
		t += r.UsefulByUser[u]
	}
	return t
}

// MaxShareError returns the largest per-user deviation between the
// observed usage fraction and the fair-reference fraction — the
// scalar fairness score reported across the experiments (0 = every
// user tracked their water-filled entitlement exactly).
func (r *Result) MaxShareError() float64 {
	obs := metrics.ShareFractions(r.TotalUsageByUser())
	ideal := metrics.ShareFractions(r.FairUsageByUser)
	worst := 0.0
	for u, want := range ideal {
		if d := math.Abs(obs[u] - want); d > worst {
			worst = d
		}
	}
	return worst
}

// JCTs returns completion times of finished jobs in seconds.
func (r *Result) JCTs() []float64 {
	out := make([]float64, 0, len(r.Finished))
	for _, j := range r.Finished {
		out = append(out, j.JCT())
	}
	return out
}

// QueueDelays returns, for each finished job, the wait from arrival
// to its first quantum in seconds.
func (r *Result) QueueDelays() []float64 {
	out := make([]float64, 0, len(r.Finished))
	for _, j := range r.Finished {
		if d, ok := j.QueueDelay(); ok {
			out = append(out, d)
		}
	}
	return out
}

// Sim is the simulation engine. Create with New, run with Run.
type Sim struct {
	cfg     Config
	clock   *simclock.Clock
	policy  Policy
	prof    *profiler.Profiler
	log     *trace.Log
	tl      *metrics.Timeline
	tickets map[job.UserID]float64

	evq      *eventCursor // arrivals and ticket changes, time-ordered
	active   map[job.ID]*job.Job
	finished []*job.Job // in retirement order; result() sorts by finish time

	// jobs is s.active's values in job-ID order, inserted on admission
	// and compacted by the retirement sweep. It is the round's
	// RoundState.Jobs, and every ID-ordered walk in the round loop
	// (crash draws, the execute order, the retirement sweep) reads it;
	// a job's per-round state is its index here, not a map entry.
	jobs []*job.Job //gflint:noretain compacted in place every round

	// Incremental-engine state (nil under EngineRescan).
	incremental bool
	pidx        *placement.Index  // free-capacity index owned by placement
	fairSolver  *fairshare.Solver // dirty-set water-filler for the fairness reference

	// owners is the one device-owner table behind placement validation
	// and the auditor's double-placement check.
	owners *placement.Owners

	// Per-round scratch reused across rounds (contents die at round end).
	placedBuf    []placedJob     //gflint:noretain per-round scratch
	migFailedBuf []job.ID        //gflint:noretain per-round scratch
	pinBuf       []job.ID        //gflint:noretain per-round scratch
	seenBuf      map[job.ID]bool //gflint:noretain checkDecision's duplicate set, cleared per round
	execRep      ExecReport      //gflint:noretain the report handed to Policy.Executed; Ran is cleared per round

	prev    placement.Assignment
	prevGen map[job.ID]gpu.Generation

	usage      map[job.UserID]map[gpu.Generation]float64
	useful     map[job.UserID]float64
	fairUsage  map[job.UserID]float64
	mbByUser   map[job.UserID]float64
	busyByGen  map[gpu.Generation]float64
	capByGen   map[gpu.Generation]float64
	migrations int
	trades     int
	rounds     int
	aud        *auditor
	obs        *obs.Observer // nil when uninstrumented

	// Fault-model state. The timeline/sweep pair always exists (the
	// declared Failures list is compiled into it at New); everything
	// else is live only when cfg.Faults is non-nil.
	ftl      *faults.Timeline
	fsweep   *faults.Sweep
	down     map[gpu.ServerID]bool // current sampled down set
	faultsOn bool
	fcfg     faults.Config // defaults applied; valid when faultsOn
	finj     *faults.Injector
	breaker  *faults.Breaker

	migFails    map[job.ID]int           // consecutive failed migration attempts
	pinnedUntil map[job.ID]int           // migration backoff: pinned while rounds ≤ value
	lastCkpt    map[job.ID]simclock.Time // last durable checkpoint time
	compDeficit map[job.UserID]float64   // occupied GPU-seconds owed per user
	compRepaid  float64                  // total GPU-seconds repaid
	crashes     int
	migFailures int
	quarTrips   int
}

// placedJob is one entry of the round's execute list: a placed job as
// its index into Sim.jobs, with the devices it holds.
type placedJob struct {
	pos  int
	devs []gpu.DeviceID
}

// New builds a simulation for a policy. The config is validated.
func New(cfg Config, policy Policy) (*Sim, error) {
	if policy == nil {
		return nil, fmt.Errorf("core: nil policy")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	prof, err := profiler.New(cfg.ProfilerAlpha, cfg.ProfilerNoise, cfg.Seed)
	if err != nil {
		return nil, err
	}
	owners := placement.NewOwners(cfg.Cluster)
	s := &Sim{
		cfg:       cfg,
		clock:     simclock.New(),
		policy:    policy,
		prof:      prof,
		log:       &trace.Log{},
		tl:        metrics.NewTimeline(cfg.TimelineWindow),
		tickets:   make(map[job.UserID]float64),
		active:    make(map[job.ID]*job.Job),
		prev:      placement.Assignment{},
		prevGen:   make(map[job.ID]gpu.Generation),
		usage:     make(map[job.UserID]map[gpu.Generation]float64),
		useful:    make(map[job.UserID]float64),
		fairUsage: make(map[job.UserID]float64),
		mbByUser:  make(map[job.UserID]float64),
		busyByGen: make(map[gpu.Generation]float64),
		capByGen:  make(map[gpu.Generation]float64),
		down:      make(map[gpu.ServerID]bool),
		owners:    owners,
		seenBuf:   make(map[job.ID]bool),
		execRep:   ExecReport{Ran: make(map[job.ID]RanInfo)},
		aud:       newAuditor(cfg.Audit, cfg.Cluster, cfg.Quantum, owners),
		obs:       cfg.Obs,
	}
	// Satellite of the fault model: the declared failure list is
	// compiled once into sorted per-server intervals instead of being
	// rescanned every quantum (see faults.Timeline).
	s.ftl = faults.Compile(declaredOutages(cfg.Failures), nil, cfg.Cluster.NumServers())
	s.fsweep = faults.NewSweep(s.ftl)
	if cfg.Faults != nil {
		s.faultsOn = true
		s.fcfg = cfg.Faults.WithDefaults()
		s.finj = faults.NewInjector(*cfg.Faults, cfg.Quantum, cfg.Seed)
		s.breaker = faults.NewBreaker(*cfg.Faults)
		s.migFails = make(map[job.ID]int)
		s.pinnedUntil = make(map[job.ID]int)
		s.lastCkpt = make(map[job.ID]simclock.Time)
		s.compDeficit = make(map[job.UserID]float64)
	}
	if cfg.TraceCap > 0 {
		s.log.SetCap(cfg.TraceCap)
	}
	// The nil check matters: SetSink takes an interface, and wrapping
	// a typed-nil *Recorder would defeat the sink == nil fast path.
	if cfg.Flight != nil {
		cfg.Obs.SetSink(cfg.Flight)
	}
	s.evq = newEventCursor(cfg.Specs, cfg.TicketChanges)
	for i := range cfg.Specs {
		u := cfg.Specs[i].User
		if t, ok := cfg.Tickets[u]; ok {
			s.tickets[u] = t
		} else {
			s.tickets[u] = 1
		}
	}
	s.incremental = cfg.Engine == EngineIncremental
	if s.incremental {
		s.pidx = placement.NewIndex(cfg.Cluster)
		s.fairSolver = fairshare.NewSolver()
		for _, u := range job.SortedUsers(s.tickets) {
			s.fairSolver.SetTickets(u, s.tickets[u])
		}
	}
	return s, nil
}

// Run simulates until the horizon or until every job finishes,
// whichever comes first, and returns the result. Run may be called
// once per Sim. With a flight recorder configured, any round-loop
// error or panic dumps the recorder's window before surfacing.
func (s *Sim) Run(until simclock.Time) (res *Result, err error) {
	if until <= 0 {
		return nil, fmt.Errorf("core: non-positive horizon")
	}
	if s.cfg.Flight != nil {
		defer func() {
			if p := recover(); p != nil {
				_ = s.cfg.Flight.Dump("panic", fmt.Sprint(p))
				panic(p)
			}
			if err != nil {
				reason := "run-error"
				var av *AuditError
				if errors.As(err, &av) {
					reason = "audit-violation"
				}
				_ = s.cfg.Flight.Dump(reason, err.Error())
			}
		}()
	}
	if err := s.materializeFaults(until); err != nil {
		return nil, err
	}
	for s.clock.Now() < until {
		if len(s.active) == 0 {
			// Fast-forward idle gaps to the next arrival, aligned to
			// the quantum grid so rounds stay comparable. Waking only
			// for arrivals is sound: with nothing active, ticket and
			// fault events are observationally idempotent until then
			// (see eventCursor).
			next, ok := s.evq.nextArrival()
			if !ok {
				break // all done
			}
			if next >= until {
				break
			}
			aligned := simclock.Time(float64(int(float64(next)/s.cfg.Quantum)) * s.cfg.Quantum)
			if aligned > s.clock.Now() {
				s.clock.RunUntil(aligned)
			}
		}
		s.obs.PhaseStart(obs.PhaseArrivals)
		s.admitArrivals()
		s.obs.PhaseEnd(obs.PhaseArrivals)
		if len(s.active) == 0 {
			// Arrival strictly inside the coming quantum: step one
			// quantum and retry.
			s.clock.RunUntil(s.clock.Now().Add(s.cfg.Quantum))
			continue
		}
		if err := s.runRound(); err != nil {
			return nil, err
		}
		s.clock.RunUntil(s.clock.Now().Add(s.cfg.Quantum))
	}
	return s.result(), nil
}

func (s *Sim) admitArrivals() {
	now := s.clock.Now()
	s.evq.popArrivalsDue(now, func(spec job.Spec) {
		j, err := job.New(spec)
		if err != nil {
			panic(fmt.Sprintf("core: validated spec rejected: %v", err)) // unreachable
		}
		s.active[j.ID] = j
		at, _ := slices.BinarySearchFunc(s.jobs, j.ID, func(a *job.Job, id job.ID) int { return cmp.Compare(a.ID, id) })
		s.jobs = slices.Insert(s.jobs, at, j)
		if s.fairSolver != nil {
			s.fairSolver.AddDemand(j.User, float64(j.Gang))
		}
		s.log.Add(spec.Arrival, trace.KindArrival, j.ID, j.User,
			fmt.Sprintf("model=%s gang=%d", spec.Perf.Model, spec.Gang))
	})
}

// runRound executes one scheduling quantum.
func (s *Sim) runRound() error {
	now := s.clock.Now()
	s.rounds++
	s.obs.BeginRound(s.rounds, float64(now))
	s.evq.popTicketsDue(now, func(tc TicketChange) {
		s.tickets[tc.User] = tc.Tickets
		if s.fairSolver != nil {
			s.fairSolver.SetTickets(tc.User, tc.Tickets)
		}
	})
	s.obs.PhaseStart(obs.PhaseFaultSweep)
	down := s.updateFaultState(now)
	quar := s.breaker.Set()
	s.obs.PhaseEnd(obs.PhaseFaultSweep)
	s.obs.SetQuarantined(s.breaker.Count())
	// Servers unusable this round: physically down or quarantined.
	unavail := down
	if len(quar) > 0 {
		unavail = make(map[gpu.ServerID]bool, len(down)+len(quar))
		for sid := range down {
			unavail[sid] = true
		}
		for sid := range quar {
			unavail[sid] = true
		}
	}

	// Job crash-restart draws, in job-ID order: the injector consumes
	// one draw per job that held GPUs last quantum, so the visiting
	// order is part of the seed contract.
	var faultLoss, roundOcc map[job.UserID]float64
	if s.faultsOn {
		faultLoss = make(map[job.UserID]float64)
		roundOcc = make(map[job.UserID]float64)
		for _, j := range s.jobs {
			if j.Finished() || !j.RanLastQuantum() {
				continue
			}
			if s.finj.CrashNow() {
				lost := j.Crash()
				s.crashes++
				s.log.Add(now, trace.KindJobCrash, j.ID, j.User,
					fmt.Sprintf("lostMB=%.1f crashes=%d", lost, j.Crashes()))
				s.obs.NoteFault("job-crash")
			}
		}
	}

	// The policy sees the deficit as of the round start; losses accrued
	// this round become visible (and repayable) next round.
	var decideDeficit map[job.UserID]float64
	if len(s.compDeficit) > 0 {
		decideDeficit = make(map[job.UserID]float64, len(s.compDeficit))
		for u, d := range s.compDeficit {
			decideDeficit[u] = d
		}
	}

	// Migration-failure backoff pinning, expiring lapsed entries.
	var pinned map[job.ID]bool
	if len(s.pinnedUntil) > 0 {
		pinned = make(map[job.ID]bool, len(s.pinnedUntil))
		s.pinBuf = sortedJobIDsInt(s.pinnedUntil, s.pinBuf)
		for _, id := range s.pinBuf {
			if s.rounds > s.pinnedUntil[id] {
				delete(s.pinnedUntil, id)
				continue
			}
			pinned[id] = true
		}
	}

	st := &RoundState{
		Now:     now,
		Quantum: s.cfg.Quantum,
		Cluster: s.cfg.Cluster,
		Jobs:    s.jobs,
		Tickets: s.tickets,
		Prof:    s.prof,
		PrevGen: s.prevGen,

		MigrationDisabled: s.cfg.DisableMigration,
		Down:              down,
		Quarantined:       quar,
		Pinned:            pinned,
		Deficit:           decideDeficit,
		Obs:               s.obs,
	}
	capNow := st.CapacityByGen()
	st.caps = capNow // the policy's CapacityByGen call reuses it
	s.aud.beginRound(s.rounds, now, capNow, s.tickets)
	if s.cfg.AuditDrillRound == s.rounds && s.aud.on() {
		s.aud.violate(InvDrill, "operator-requested audit drill")
	}
	// Policy-independent fairness reference for this round,
	// water-filled over the capacity actually available (failed
	// servers excluded).
	s.obs.PhaseStart(obs.PhaseWaterfill)
	availTotal := 0.0
	for _, g := range gpu.Generations() {
		availTotal += float64(capNow[g])
	}
	var shares map[job.UserID]float64
	if s.incremental {
		// Demand was maintained exactly at admission/retirement time and
		// tickets at change-application time; only capacity can still
		// have moved. The solver re-solves only when something really
		// changed — most rounds return the memoized water-fill.
		s.fairSolver.SetCapacity(availTotal)
		shares = s.fairSolver.Shares()
	} else {
		demand := make(map[job.UserID]float64)
		for _, j := range st.Jobs {
			demand[j.User] += float64(j.Gang)
		}
		shares = fairshare.Compute(s.tickets, demand, availTotal)
	}
	var roundFair map[job.UserID]float64
	if s.faultsOn {
		roundFair = make(map[job.UserID]float64, len(shares))
	}
	for u, sh := range shares {
		s.fairUsage[u] += sh * s.cfg.Quantum
		if roundFair != nil {
			roundFair[u] = sh * s.cfg.Quantum
		}
	}
	s.obs.PhaseEnd(obs.PhaseWaterfill)

	s.obs.PhaseStart(obs.PhaseDecide)
	dec := s.policy.Decide(st)
	if err := s.checkDecision(dec, capNow); err != nil {
		return err
	}
	s.obs.PhaseEnd(obs.PhaseDecide)
	s.trades += len(dec.Trades)
	for _, tr := range dec.Trades {
		s.log.Add(now, trace.KindTrade, 0, tr.Buyer,
			fmt.Sprintf("seller=%s fast=%v slow=%v dFast=%.2f dSlow=%.2f price=%.2f",
				tr.Seller, tr.Fast, tr.Slow, tr.FastGPUs, tr.SlowGPUs, tr.Price))
		s.obs.NoteTrade(string(tr.Buyer), string(tr.Seller),
			tr.Fast.String(), tr.Slow.String(), tr.FastGPUs, tr.SlowGPUs, tr.Price)
	}

	s.obs.PhaseStart(obs.PhasePlacement)
	var res placement.Result
	if s.incremental {
		// The index carries availability as baseline state and takes
		// the delta against last round out of the full set itself.
		s.pidx.SyncUnavail(unavail)
		res = placement.PlaceIndexed(s.pidx, s.prev, dec.Run,
			placement.Options{AllowMigration: !s.cfg.DisableMigration, Pinned: pinned})
	} else {
		res = placement.Place(s.cfg.Cluster, s.prev, dec.Run,
			placement.Options{AllowMigration: !s.cfg.DisableMigration, Down: unavail, Pinned: pinned})
	}
	// The round's execute list, in job-ID order, not assignment-map
	// order: executeJob consumes draws from the shared profiling RNG, so
	// the processing order decides which job sees which noise sample.
	// Map iteration order varies between processes and would make runs
	// with the same seed diverge. s.jobs is already sorted; filtering it
	// against the assignment yields the same order a fresh sort would.
	// Each job's devices are validated on the way, so the first
	// violation reported is the lowest job ID's.
	placed := s.placedBuf[:0]
	s.owners.Begin()
	for i, j := range s.jobs {
		devs, ok := res.Assignment[j.ID]
		if !ok {
			continue
		}
		if err := s.owners.ValidateJob(j.ID, devs); err != nil {
			return fmt.Errorf("core: round %d: %w", s.rounds, err)
		}
		placed = append(placed, placedJob{pos: i, devs: devs})
	}
	s.placedBuf = placed
	if len(placed) != len(res.Assignment) {
		for id := range res.Assignment {
			if s.active[id] == nil {
				return fmt.Errorf("core: placement returned unknown job %d", id)
			}
		}
	}
	s.obs.PhaseEnd(obs.PhasePlacement)

	// Migration-failure injection: each migration attempt may fail —
	// the job pays the copy cost on its reserved target devices but
	// stays put, retrying later under capped exponential backoff. Draws
	// happen in res.Migrated order, which placement emits sorted — so
	// migFailed comes out sorted too.
	s.obs.PhaseStart(obs.PhaseMigrate)
	migFailed := s.migFailedBuf[:0]
	if s.finj != nil && len(res.Migrated) > 0 {
		kept := res.Migrated[:0]
		for _, id := range res.Migrated {
			if !s.finj.MigrationFails() {
				kept = append(kept, id)
				delete(s.migFails, id)
				delete(s.pinnedUntil, id)
				continue
			}
			j := s.active[id]
			devs := res.Assignment[id]
			gen := s.cfg.Cluster.Device(devs[0]).Gen
			gang := float64(j.Gang)
			cost := s.cfg.Costs.MigrationCost(j.Perf)
			if cost > s.cfg.Quantum {
				cost = s.cfg.Quantum
			}
			// The attempt held its reserved target devices for the
			// checkpoint copy: occupied time is charged, no progress made,
			// and the rest of the quantum is lost to the fault.
			j.AddOverhead(cost)
			s.addUsage(j.User, gen, gang*cost)
			s.busyByGen[gen] += gang * cost
			s.tl.Add(now, j.User, gang*cost)
			s.aud.noteFaultCharge(gen, gang*cost)
			roundOcc[j.User] += gang * cost
			faultLoss[j.User] += gang * (s.cfg.Quantum - cost)
			s.migFails[id]++
			s.migFailures++
			backoff := faults.Backoff(s.fcfg, s.migFails[id])
			s.pinnedUntil[id] = s.rounds + backoff
			migFailed = append(migFailed, id)
			delete(res.Assignment, id)
			res.Unplaced = append(res.Unplaced, id)
			s.log.Add(now, trace.KindMigFail, id, j.User,
				fmt.Sprintf("attempt=%d backoff=%d cost=%.0fs", s.migFails[id], backoff, cost))
			s.obs.NoteFault("migration-fail")
		}
		res.Migrated = kept
		slices.Sort(res.Unplaced)
		placed = slices.DeleteFunc(placed, func(p placedJob) bool { // the failed movers do not run
			_, failed := slices.BinarySearch(migFailed, s.jobs[p.pos].ID)
			return failed
		})
	}
	s.migFailedBuf = migFailed
	s.obs.PhaseEnd(obs.PhaseMigrate)
	s.obs.NoteUnplaced(len(res.Unplaced))

	s.obs.PhaseStart(obs.PhaseAudit)
	s.aud.checkAssignment(placed, s.jobs, down, quar)
	s.obs.PhaseEnd(obs.PhaseAudit)

	rep := &s.execRep
	clear(rep.Ran)
	rep.Unplaced = res.Unplaced
	s.obs.PhaseStart(obs.PhaseExecute)
	for _, p := range placed {
		j, devs := s.jobs[p.pos], p.devs
		id := j.ID
		gen := s.cfg.Cluster.Device(devs[0]).Gen
		_, migrated := slices.BinarySearch(res.Migrated, id)
		if s.obs != nil {
			fromGen := ""
			if prev, ok := s.prevGen[id]; ok && migrated {
				fromGen = prev.String()
			}
			ints := make([]int, len(devs)) // retained by the observer's decision ring
			for i, d := range devs {
				ints[i] = int(d)
			}
			s.obs.RecordPlacement(int64(id), string(j.User), gen.String(),
				j.Gang, ints, migrated, fromGen)
		}
		info := s.executeJob(j, gen, devs, migrated)
		rep.Ran[id] = info
		if s.faultsOn {
			roundOcc[j.User] += float64(info.Gang) * info.OccupiedSecs
		}
		s.prevGen[id] = gen
	}
	s.obs.PhaseEnd(obs.PhaseExecute)

	// Capacity accounting for utilization, net of failed servers.
	for g, c := range capNow {
		s.capByGen[g] += float64(c) * s.cfg.Quantum
	}

	// Quantum bookkeeping on every active job, then retire finished
	// ones. Walk jobs in ID order, not map order: retirement appends
	// finish events to the trace, and map iteration would let two jobs
	// finishing in the same round swap log positions between runs.
	// The sweep compacts s.jobs in place behind itself, and merges the
	// round's assignment into s.prev, next round's stability baseline:
	// a job that ran takes its new devices, a job that went unplaced
	// keeps its old ones (its checkpoint state lives on that server, and
	// the no-migration mode pins it there), a finished job drops out.
	live := s.jobs[:0]
	nextPlaced := 0
	for i, j := range s.jobs {
		id := j.ID
		ran := nextPlaced < len(placed) && placed[nextPlaced].pos == i
		if ran {
			nextPlaced++
		}
		if j.Finished() {
			s.finished = append(s.finished, j)
			s.log.Add(j.FinishTime(), trace.KindFinish, id, j.User,
				fmt.Sprintf("jct=%.0fs migrations=%d", j.JCT(), j.Migrations()))
			s.obs.NoteFinish()
			s.policy.JobFinished(id)
			s.prof.Remove(id)
			delete(s.active, id)
			if s.fairSolver != nil {
				s.fairSolver.AddDemand(j.User, -float64(j.Gang))
			}
			delete(s.prev, id)
			delete(s.prevGen, id)
			if s.faultsOn {
				delete(s.migFails, id)
				delete(s.pinnedUntil, id)
				delete(s.lastCkpt, id)
			}
			continue
		}
		live = append(live, j)
		if ran {
			s.prev[id] = placed[nextPlaced-1].devs
		}
		if j.State() == job.Running && !ran {
			j.SetRunning(false)
			if s.faultsOn {
				// Suspension serializes the job (Gandiva's suspend is
				// checkpoint-based), so its progress becomes durable.
				j.NoteCheckpoint()
				s.lastCkpt[id] = now
			}
		}
		if s.faultsOn && !ran {
			// A job stranded because its servers are down or quarantined
			// loses the whole quantum of occupied share to the fault —
			// that shortfall becomes its user's compensation debt.
			// (Failed migrations were already charged above.)
			if _, migFailedNow := slices.BinarySearch(migFailed, id); !migFailedNow {
				for _, d := range s.prev[id] {
					if unavail[s.cfg.Cluster.Device(d).Server] {
						faultLoss[j.User] += float64(j.Gang) * s.cfg.Quantum
						break
					}
				}
			}
		}
		j.NoteQuantum(ran)
	}
	clear(s.jobs[len(live):]) // drop the retired jobs' pointers
	s.jobs = live

	s.policy.Executed(rep)
	if s.faultsOn {
		// Cap each user's raw fault loss at their actual share shortfall
		// this round (fair entitlement minus occupied time). A user whose
		// other jobs soaked up their full water-filled share lost nothing
		// in the fairness currency, and compensating the per-job loss
		// anyway would push them above the reference.
		for _, u := range job.SortedUsers(faultLoss) {
			shortfall := roundFair[u] - roundOcc[u]
			if shortfall < 0 {
				shortfall = 0
			}
			if faultLoss[u] > shortfall {
				faultLoss[u] = shortfall
			}
			if faultLoss[u] <= 0 {
				delete(faultLoss, u)
			}
		}
		s.settleCompensation(faultLoss, dec.Repaid, roundFair, roundOcc)
	}
	s.obs.PhaseStart(obs.PhaseAudit)
	err := s.aud.endRound()
	s.obs.PhaseEnd(obs.PhaseAudit)
	s.publishShares()
	s.obs.EndRound(len(s.active), s.evq.pendingCount())
	return err
}

// settleCompensation closes the round's failure-compensation books:
// repayments drain the debt, this round's fault losses add to it, the
// auditor checks the arithmetic, and users who have fully departed are
// forgiven. Gauges are refreshed last.
//
// Repayment is recognized by materialization, not by grant: when the
// policy participates in compensation (Decision.Repaid non-nil), a
// debtor's occupied time beyond their fair reference this round drains
// the debt, capped at what is owed. Grants flow through the policy's
// credit accounting and surface as excess occupancy over the following
// rounds, so recognizing the excess — rather than the grant — keeps a
// deficit alive when placement could not realize the grant
// (fragmentation, pinned jobs) and retires it exactly as fast as the
// user actually catches up.
func (s *Sim) settleCompensation(lost, repaid, fair, occ map[job.UserID]float64) {
	users := make(map[job.UserID]float64, len(s.compDeficit)+len(lost)+len(repaid))
	for u := range s.compDeficit {
		users[u] = 0
	}
	for u := range lost {
		users[u] = 0
	}
	for u := range repaid {
		users[u] = 0
	}
	if len(users) == 0 {
		return
	}
	sorted := job.SortedUsers(users)
	before := make(map[job.UserID]float64, len(sorted))
	clamped := make(map[job.UserID]float64, len(sorted))
	after := make(map[job.UserID]float64, len(sorted))
	for _, u := range sorted {
		b := s.compDeficit[u]
		before[u] = b
		var r float64
		if repaid != nil && b > 0 {
			if r = occ[u] - fair[u]; r < 0 {
				r = 0
			}
			if r > b {
				r = b
			}
		}
		clamped[u] = r
		d := b + lost[u] - r
		if d <= 1e-9 {
			d = 0
		}
		after[u] = d
		if d == 0 {
			delete(s.compDeficit, u)
		} else {
			s.compDeficit[u] = d
		}
		s.compRepaid += r
		s.obs.SetCompDeficit(string(u), d)
		s.obs.NoteRepaid(r)
	}
	s.aud.checkCompensation(sorted, before, lost, clamped, after)
	// Forgive debt of users with no jobs left in the system — there is
	// no demand to repay into, and carrying the deficit forever would
	// poison the monotone-drain invariant for reappearing user names.
	if len(s.compDeficit) == 0 {
		return
	}
	present := make(map[job.UserID]bool, len(s.active))
	for _, j := range s.active {
		present[j.User] = true
	}
	s.evq.forEachPendingUser(func(u job.UserID) { present[u] = true })
	for _, u := range job.SortedUsers(s.compDeficit) {
		if !present[u] {
			delete(s.compDeficit, u)
			s.obs.SetCompDeficit(string(u), 0)
		}
	}
}

// publishShares refreshes the per-user share gauges (observed vs
// water-filled entitlement fractions). No-op when uninstrumented.
func (s *Sim) publishShares() {
	if s.obs == nil {
		return
	}
	var usedTotal, fairTotal float64
	used := make(map[job.UserID]float64, len(s.usage))
	for u, byGen := range s.usage {
		for _, g := range gpu.Generations() {
			used[u] += byGen[g]
		}
	}
	for _, u := range job.SortedUsers(used) {
		usedTotal += used[u]
	}
	for _, u := range job.SortedUsers(s.fairUsage) {
		fairTotal += s.fairUsage[u]
	}
	for _, u := range job.SortedUsers(used) {
		uf, ff := 0.0, 0.0
		if usedTotal > 0 {
			uf = used[u] / usedTotal
		}
		if fairTotal > 0 {
			ff = s.fairUsage[u] / fairTotal
		}
		s.obs.SetShare(string(u), uf, ff)
	}
}

// executeJob charges overheads and advances one job for the quantum.
func (s *Sim) executeJob(j *job.Job, gen gpu.Generation, devs []gpu.DeviceID, migrated bool) RanInfo {
	now := s.clock.Now()
	quantum := s.cfg.Quantum

	var overhead simclock.Duration
	switch {
	case migrated:
		overhead = s.cfg.Costs.MigrationCost(j.Perf)
		j.NoteMigration()
		s.migrations++
		s.log.Add(now, trace.KindMigration, j.ID, j.User,
			fmt.Sprintf("to=%v cost=%.0fs", gen, overhead))
	case !j.RanLastQuantum():
		overhead = s.cfg.Costs.ResumeCost()
	}
	if overhead > quantum {
		overhead = quantum
	}
	j.AddOverhead(overhead)

	span := placement.ServersUsed(s.cfg.Cluster, devs)
	penalty := s.cfg.Costs.SpanPenalty(span)
	// A degraded server slows the whole gang: synchronous SGD moves at
	// the slowest worker, so the effective rate is the minimum slowdown
	// factor over the servers spanned (1 when nothing is degraded).
	factor := 1.0
	for _, d := range devs {
		if f := s.fsweep.Factor(s.cfg.Cluster.Device(d).Server); f < factor {
			factor = f
		}
	}
	eff := penalty * factor
	avail := (quantum - overhead) * eff
	if lost := (quantum - overhead) * (1 - eff); lost > 0 {
		j.AddOverhead(lost)
	}

	if j.State() != job.Running {
		j.SetRunning(true)
		if !j.RanLastQuantum() && j.DoneMB() == 0 {
			s.log.Add(now, trace.KindStart, j.ID, j.User, fmt.Sprintf("gen=%v", gen))
		}
	}
	j.NoteFirstRun(now)
	if s.prof.Samples(j.ID, gen) == 0 {
		s.prof.ProbeAll(j)
	} else {
		s.prof.Observe(j, gen)
	}

	if s.faultsOn && migrated {
		// Migration serializes a checkpoint of the pre-move progress;
		// note it before advancing so a later crash rolls back to here.
		j.NoteCheckpoint()
		s.lastCkpt[j.ID] = now
	}

	used, finished := j.Advance(gen, avail, now.Add(overhead))
	// Occupied wall time: overhead plus useful time (de-scaled by the
	// span penalty and any degradation), capped at the quantum. A job
	// finishing mid-round releases its GPUs for accounting purposes.
	occupied := quantum
	if finished && eff > 0 {
		occupied = overhead + used/eff
		if occupied > quantum {
			occupied = quantum
		}
	}

	if s.faultsOn && !finished {
		// Periodic checkpointing: crash-restart loses at most
		// CheckpointSecs of progress once the first interval elapses.
		end := now.Add(quantum)
		if last, ok := s.lastCkpt[j.ID]; !ok {
			s.lastCkpt[j.ID] = now
		} else if end.Sub(last) >= s.fcfg.CheckpointSecs {
			j.NoteCheckpoint()
			s.lastCkpt[j.ID] = end
		}
	}

	gang := float64(j.Gang)
	s.addUsage(j.User, gen, gang*occupied)
	s.useful[j.User] += gang * used
	s.mbByUser[j.User] += j.GangRate(gen) * used
	s.busyByGen[gen] += gang * occupied
	s.tl.Add(now, j.User, gang*occupied)

	info := RanInfo{
		User: j.User, Gen: gen, Gang: j.Gang,
		OccupiedSecs: occupied, UsefulSecs: used,
		Migrated: migrated, Finished: finished,
	}
	s.aud.noteExec(j, gen, info)
	return info
}

func (s *Sim) addUsage(u job.UserID, g gpu.Generation, amount float64) {
	m := s.usage[u]
	if m == nil {
		m = make(map[gpu.Generation]float64)
		s.usage[u] = m
	}
	m[g] += amount
}

// declaredOutages converts the config's declared failure list into
// fault-schedule outages.
func declaredOutages(fs []Failure) []faults.Outage {
	if len(fs) == 0 {
		return nil
	}
	out := make([]faults.Outage, len(fs))
	for i, f := range fs {
		out[i] = faults.Outage{Server: f.Server, At: f.At, Duration: f.Duration, Kind: faults.OutageDeclared}
	}
	return out
}

// materializeFaults generates the probabilistic fault schedule for the
// run's horizon (if configured) and recompiles the timeline with the
// declared failures merged in. Called once at the top of Run.
func (s *Sim) materializeFaults(until simclock.Time) error {
	if !s.faultsOn {
		return nil
	}
	if s.fcfg.ServerMTBFHours == 0 && s.fcfg.FlakyServers == 0 && s.fcfg.DegradeMTBFHours == 0 {
		return nil // nothing probabilistic on the server timeline
	}
	// Exponential schedules are generated eagerly, so bound the horizon
	// against pathological callers (e.g. near-Forever).
	horizon := until
	if max := simclock.Time(365 * simclock.Day); horizon > max {
		horizon = max
	}
	sched, err := faults.Generate(*s.cfg.Faults, s.cfg.Cluster.NumServers(), horizon, s.cfg.Seed)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	outages := append(declaredOutages(s.cfg.Failures), sched.Outages...)
	s.ftl = faults.Compile(outages, sched.Degradations, s.cfg.Cluster.NumServers())
	s.fsweep = faults.NewSweep(s.ftl)
	return nil
}

// updateFaultState advances the compiled fault timeline to now,
// maintains the sampled down set incrementally, feeds the quarantine
// breaker, and logs every transition. It returns the round's down set
// (a copy — RoundState and placement must not alias mutable state).
func (s *Sim) updateFaultState(now simclock.Time) map[gpu.ServerID]bool {
	// Release expired quarantines before noting new failures so a
	// server can be re-observed the round it is freed.
	for _, sid := range s.breaker.ExpireStep(now) {
		s.log.Add(now, trace.KindUnquarantine, 0, "", fmt.Sprintf("server=%d", sid))
	}
	for _, tr := range s.fsweep.Advance(now) {
		if tr.Slow {
			if tr.Factor < 1 {
				s.log.Add(now, trace.KindDegrade, 0, "", fmt.Sprintf("server=%d factor=%.2f", tr.Server, tr.Factor))
				s.obs.NoteFault("degrade")
			} else {
				s.log.Add(now, trace.KindDegradeEnd, 0, "", fmt.Sprintf("server=%d", tr.Server))
			}
			continue
		}
		if tr.Down {
			s.down[tr.Server] = true
			s.log.Add(now, trace.KindFailure, 0, "", fmt.Sprintf("server=%d", tr.Server))
			s.obs.NoteFault("server-down")
			if s.breaker.NoteFailure(tr.Server, now) {
				s.quarTrips++
				s.log.Add(now, trace.KindQuarantine, 0, "", fmt.Sprintf("server=%d", tr.Server))
				s.obs.NoteFault("quarantine")
			}
		} else {
			delete(s.down, tr.Server)
			s.log.Add(now, trace.KindRecovery, 0, "", fmt.Sprintf("server=%d", tr.Server))
		}
	}
	down := make(map[gpu.ServerID]bool, len(s.down))
	for sid := range s.down {
		down[sid] = true
	}
	return down
}

// sortedJobIDsInt collects m's keys sorted ascending into buf
// (reused; contents overwritten).
func sortedJobIDsInt(m map[job.ID]int, buf []job.ID) []job.ID {
	ids := buf[:0]
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// checkDecision enforces the policy contract: known runnable jobs,
// no duplicates, per-generation gang totals within capacity, and
// every job placed on a generation it fits.
func (s *Sim) checkDecision(dec Decision, caps map[gpu.Generation]int) error {
	seen := s.seenBuf
	clear(seen)
	var width [gpu.NumGenerations]int
	for _, r := range dec.Run {
		if r.Job == nil {
			return fmt.Errorf("core: policy returned nil job")
		}
		j, ok := s.active[r.Job.ID]
		if !ok || j != r.Job {
			return fmt.Errorf("core: policy scheduled unknown job %d", r.Job.ID)
		}
		if seen[r.Job.ID] {
			return fmt.Errorf("core: policy scheduled job %d twice", r.Job.ID)
		}
		seen[r.Job.ID] = true
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

// resultDeficit snapshots the outstanding compensation debt (nil when
// the fault model is off, so legacy results are unchanged).
func (s *Sim) resultDeficit() map[job.UserID]float64 {
	if !s.faultsOn {
		return nil
	}
	out := make(map[job.UserID]float64, len(s.compDeficit))
	for u, d := range s.compDeficit {
		out[u] = d
	}
	return out
}

// computeSLO derives the run's fairness SLO bundle. A job's
// standalone reference is its exclusive runtime on the fastest
// generation present in the cluster that it can use; Themis's N is
// the number of users the run was configured with.
func (s *Sim) computeSLO() metrics.SLO {
	runs := make([]metrics.JobRun, 0, len(s.finished))
	for _, j := range s.finished {
		best := math.Inf(1)
		for _, g := range s.cfg.Cluster.GensPresent() {
			if !j.Perf.FitsOn(g) {
				continue
			}
			if st := j.StandaloneTime(g); st < best {
				best = st
			}
		}
		runs = append(runs, metrics.JobRun{
			User: string(j.User), JCT: j.JCT(),
			Finish: float64(j.FinishTime()), Standalone: best,
		})
	}
	return metrics.ComputeSLO(runs, len(s.tickets))
}

func (s *Sim) result() *Result {
	// Completion order: nothing reads s.finished before this point, so
	// it is sorted once here, not after every round's retirements.
	sort.Slice(s.finished, func(i, j int) bool {
		if s.finished[i].FinishTime() != s.finished[j].FinishTime() {
			return s.finished[i].FinishTime() < s.finished[j].FinishTime()
		}
		return s.finished[i].ID < s.finished[j].ID
	})
	var busy, capTotal float64
	utilByGen := make(map[gpu.Generation]metrics.Utilization, len(s.capByGen))
	for _, g := range gpu.Generations() {
		c, ok := s.capByGen[g]
		if !ok {
			continue
		}
		b := s.busyByGen[g]
		utilByGen[g] = metrics.Utilization{BusyGPUSeconds: b, CapacityGPUSeconds: c}
		busy += b
		capTotal += c
	}
	slo := s.computeSLO()
	if s.obs != nil {
		s.obs.SetSLO(slo.RhoByUser, map[string]float64{
			"0.5": slo.JCT.Median, "0.95": slo.JCT.P95, "0.99": slo.JCT.P99,
		}, slo.MakespanSeconds)
	}
	return &Result{
		Policy:               s.policy.Name(),
		Finished:             s.finished,
		Unfinished:           len(s.active) + s.evq.pendingCount(),
		UsageByUserGen:       s.usage,
		UsefulByUser:         s.useful,
		FairUsageByUser:      s.fairUsage,
		ThroughputByUser:     s.mbByUser,
		Utilization:          metrics.Utilization{BusyGPUSeconds: busy, CapacityGPUSeconds: capTotal},
		UtilByGen:            utilByGen,
		Migrations:           s.migrations,
		TradeCount:           s.trades,
		Crashes:              s.crashes,
		MigrationFailures:    s.migFailures,
		Quarantines:          s.quarTrips,
		CompDeficitByUser:    s.resultDeficit(),
		CompRepaidGPUSeconds: s.compRepaid,
		Timeline:             s.tl,
		Log:                  s.log,
		Rounds:               s.rounds,
		End:                  s.clock.Now(),
		SLO:                  slo,
		Audit:                s.aud.report(),
		PhaseTotalsSeconds:   s.obs.PhaseTotals(),
	}
}
