package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

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

	// ProfilerNoise is the relative std-dev of one rate measurement.
	// Zero means 0.03.
	ProfilerNoise float64

	// TimelineWindow is the share-timeline bucket width; zero means
	// one hour.
	TimelineWindow simclock.Duration

	// Failures injects server outages: during [At, At+Duration) the
	// server's GPUs are unplaceable and jobs running there are
	// displaced — restarting from checkpoint elsewhere when migration
	// is allowed, waiting for the server otherwise.
	Failures []Failure

	// Faults tunes the probabilistic fault model (generated server
	// crashes, flaky servers, GPU degradation, job crash-restart,
	// migration failure) and the quarantine circuit breaker. Declared
	// Failures above are compiled into the same schedule. Nil is the
	// zero faults.Config: every probabilistic mechanism off, no breaker
	// trip. Whatever the model, the engine keeps the failure
	// compensation books — a job stranded on a down, quarantined or
	// unreachable server is charged to its user's debt; a policy
	// declines repayment with FairConfig.DisableCompensation.
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
	if c.TimelineWindow == 0 {
		c.TimelineWindow = simclock.Hour
	}
	if c.Faults == nil {
		c.Faults = &faults.Config{}
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
	ids := make([]job.ID, len(c.Specs))
	for i := range c.Specs {
		if err := c.Specs[i].Validate(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
		ids[i] = c.Specs[i].ID
		// A gang runs on devices of a single generation, so it must
		// fit within some one generation it can use — total cluster
		// size is not enough.
		fits, placeable := false, false
		for _, g := range c.Cluster.GensPresent() {
			if !c.Specs[i].Perf.FitsOn(g) {
				continue
			}
			fits = true
			if c.Specs[i].Gang <= c.Cluster.Capacity(g) {
				placeable = true
				break
			}
		}
		if !fits {
			return fmt.Errorf("core: job %d fits no generation in the cluster", c.Specs[i].ID)
		}
		if !placeable {
			return fmt.Errorf("core: job %d gang %d exceeds every usable generation's capacity",
				c.Specs[i].ID, c.Specs[i].Gang)
		}
	}
	slices.Sort(ids)
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			return fmt.Errorf("core: duplicate job ID %d", ids[i])
		}
	}
	if !finite(c.Quantum) || c.Quantum <= 0 {
		return fmt.Errorf("core: quantum %v is not a positive finite duration", c.Quantum)
	}
	if !finite(c.TimelineWindow) || c.TimelineWindow <= 0 {
		return fmt.Errorf("core: timeline window %v is not a positive finite duration", c.TimelineWindow)
	}
	if err := profiler.CheckParams(c.ProfilerNoise); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := c.Costs.Validate(); err != nil {
		return err
	}
	// A round's water-fill divides by its ticket total, so no total may
	// overflow: every ticket value the run can hold, summed, bounds them.
	var total float64
	for u, t := range c.Tickets {
		if !finite(t) || t < 0 {
			return fmt.Errorf("core: user %s has tickets %v, want finite and non-negative", u, t)
		}
		//gflint:ignore order sum of non-negatives feeds only an overflow check
		total += t
	}
	for _, f := range c.Failures {
		if int(f.Server) < 0 || int(f.Server) >= c.Cluster.NumServers() {
			return fmt.Errorf("core: failure names unknown server %d", f.Server)
		}
		if !finite(float64(f.At)) || !finite(f.Duration) || f.At < 0 || f.Duration <= 0 {
			return fmt.Errorf("core: failure on server %d has invalid window", f.Server)
		}
	}
	for _, tc := range c.TicketChanges {
		if tc.User == "" || !finite(tc.Tickets) || tc.Tickets < 0 || !finite(float64(tc.At)) || tc.At < 0 {
			return fmt.Errorf("core: invalid ticket change %+v", tc)
		}
		total += tc.Tickets
	}
	if !finite(total) {
		return fmt.Errorf("core: tickets and ticket changes sum to %v, overflowing a round's total", total)
	}
	if c.Audit != AuditStrict && c.Audit != AuditCount && c.Audit != AuditOff {
		return fmt.Errorf("core: invalid audit mode %d", int(c.Audit))
	}
	if err := c.Faults.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if c.TraceCap < 0 {
		return fmt.Errorf("core: negative TraceCap %d", c.TraceCap)
	}
	if c.AuditDrillRound < 0 {
		return fmt.Errorf("core: negative AuditDrillRound %d", c.AuditDrillRound)
	}
	return nil
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Result collects a finished simulation's outputs.
type Result struct {
	Policy string

	// Finished jobs, in completion order; Unfinished counts jobs
	// still incomplete at the horizon.
	Finished   []*job.Job
	Unfinished int

	// UsageByUserGen is occupied GPU-seconds per user per generation
	// (the fairness currency: time GPUs were held, including
	// overheads), indexed by gpu.Generation. A user has a key iff the
	// engine ever charged them usage; a generation never charged reads
	// 0. The map is the only allocation: its values are arrays.
	UsageByUserGen map[job.UserID][gpu.NumGenerations]float64

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

	// Fault-model outcomes (all zero under the zero fault model).
	Crashes           int // job crash-restart events
	MigrationFailures int // failed migration attempts
	Quarantines       int // quarantine circuit-breaker trips

	// CompDeficitByUser is the failure-compensation debt still
	// outstanding at the horizon, in occupied GPU-seconds, for every
	// user who owes any (empty, never nil, when no loss was charged or
	// every loss was repaid or forgiven on departure).
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
		for _, v := range byGen {
			out[u] += v
		}
	}
	return out
}

// TotalOccupied sums occupied GPU-seconds over all users and
// generations.
func (r *Result) TotalOccupied() float64 {
	var t float64
	for _, u := range job.SortedUsers(r.UsageByUserGen) {
		for _, v := range r.UsageByUserGen[u] {
			t += v
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

// Sim is the round engine: it owns everything a scheduling quantum
// means — admission, the fairness reference, the policy's decision and
// its validation, placement, the per-job cost arithmetic, the usage
// books, retirement, compensation, the auditor — and hands only the
// carrying-out of the placed quanta to its Executor. Create with New
// (simulated execution), NewWithExecutor or Restore, which all build
// it through newEngine; run with Run or Step.
type Sim struct {
	cfg     Config
	clock   *simclock.Clock
	policy  Policy
	exec    Executor
	prof    *profiler.Profiler
	log     *trace.Log     // the run's event log, a sink of ev
	ev      []trace.Record //gflint:noretain the event stream's buffer (stream.go): flushed at round close, then reused; sinks copy
	tl      *metrics.Timeline
	tickets map[job.UserID]float64

	evq      *eventCursor // arrivals and ticket changes, time-ordered
	admitted job.Block    // where admission cuts each arrival's record
	finished []*job.Job   // in retirement order; Result sorts by finish time

	// jobs is the active jobs in job-ID order, inserted on admission
	// and compacted by the retirement sweep. It is the round's
	// RoundState.Jobs, and every ID-ordered walk in the round loop
	// (crash draws, the execute order, the retirement sweep) reads it.
	jobs []*job.Job //gflint:noretain compacted in place every round

	// slots is the table of live jobs: admission hands each job a slot
	// (job.Job.Slot), the last one freed first, and retirement takes it
	// back, so the table is as long as the most jobs ever live at once.
	// Every layer that keeps per-job state keys it by slot; a slot is
	// reused, so nothing that must not depend on history (a float sum, an
	// RNG draw, a trace record) walks in slot order. reqAt is the round's
	// request column, by slot: one past the job's position in the round's
	// Decision.Run, 0 when the round does not run it (see checkDecision).
	slots []*job.Job
	free  []int32
	reqAt []int32 //gflint:noretain rewritten every round

	// pidx is the persistent placement index: free capacity, and the
	// devices of every job last round dispatched, still taken in its name.
	// Where a job holds or last held devices is on its job.Job.
	pidx *placement.Index

	// place is the round's one maintained mechanism, the index above. It
	// is a field so that the tests' export_test.go can run a round on the
	// from-scratch reference (placement.Place) the index must match byte
	// for byte; nothing else assigns it.
	place func(unavail *gpu.ServerSet, reqs []placement.Request, opts placement.Options) *placement.Round

	// users is every user of the workload, sorted; a user's position here
	// (job.Job.UserAt) is their index in every per-user table below.
	// userTickets, demand and shares are the fairness reference's inputs
	// and output: the users' entries of tickets, their runnable gang
	// width (+= at admission, −= at retirement; gang widths are
	// integers, so the sums are exact and a departed user's is exactly
	// zero) and the round's water-filled share, 0 for a user the fill did
	// not reach; pending is the fill's scratch.
	users       []job.UserID
	userTickets []float64
	demand      []float64
	shares      []float64 //gflint:noretain fairReference's result, rewritten every round
	pending     []int32   //gflint:noretain fairReference's water-fill scratch

	// books is each user's usage, by position (see userBooks).
	books []userBooks

	// owners is the one device-owner table behind placement validation
	// and the auditor's double-placement check.
	owners *placement.Owners

	// Per-round scratch reused across rounds (contents die at round end).
	rd           round      //gflint:noretain the running round's working state
	quanta       []Quantum  //gflint:noretain the round's execute list
	unplacedBuf  []job.ID   //gflint:noretain per-round scratch: the requests that do not run (unplaced, or a failed mover), sorted
	migFailedBuf []job.ID   //gflint:noretain per-round scratch: the round's failed movers, sorted
	execRep      ExecReport //gflint:noretain the report handed to Policy.Executed; Ran is refilled per round

	// executing is set while the executor holds the round's quanta, which
	// index s.jobs: a late answer that finishes a job then leaves the
	// retirement to the round's sweep.
	executing bool

	busyByGen [gpu.NumGenerations]float64
	capByGen  [gpu.NumGenerations]float64
	recorded  [trace.NumLogged]int // how often each logged kind was emitted, by its LogIndex
	rounds    int
	aud       *auditor
	obs       *obs.Observer     // nil when uninstrumented
	robs      *RoundObs         // the policy's handle on obs; nil with it
	shareBuf  []obs.ShareSample //gflint:noretain shareSamples' result, reused every round

	// Fault-model state: the sweep over the compiled fault timeline
	// (built once, by buildFaults), the injector and the breaker.
	// unreachable is the executor's contribution: servers it cannot
	// carry a quantum out on.
	fsweep      *faults.Sweep
	unreachable *gpu.ServerSet
	fcfg        faults.Config // cfg.Faults with defaults applied
	finj        *faults.Injector
	breaker     *faults.Breaker

	// The failure-compensation books: one record per user of the
	// workload, by position, and the debt they show the policy (the
	// round's RoundState.Deficit while anyone owes).
	comp       []compBooks
	deficit    []float64 //gflint:noretain rewritten every round
	compOpen   int       // records with debt on them
	compRepaid float64   // total GPU-seconds repaid
}

// compBooks is one user's failure-compensation record.
type compBooks struct {
	user job.UserID
	debt float64 // occupied GPU-seconds owed
	jobs int     // jobs not yet finished, arrived or not; at zero the debt is forgiven

	// The running round's raw fault loss and occupied time, in
	// GPU-seconds.
	loss, occ float64
}

// userBooks is one user's usage books: occupied GPU-seconds per
// generation (the fairness currency), useful gang-GPU-seconds, the
// integrated fairness reference and minibatches completed. Result and
// Checkpoint report them as maps keyed by user, and a map has a key only
// where the engine ever wrote one — a user the water-fill has not yet
// reached has no fair-usage entry, a generation a user never ran on no
// usage entry — so wrote records which entries were written.
type userBooks struct {
	usage            [gpu.NumGenerations]float64
	useful, fair, mb float64
	wrote            uint8 // bit g: usage[g]; then wroteUseful, wroteFair, wroteMB
}

const (
	wroteUseful uint8 = 1 << (gpu.NumGenerations + iota)
	wroteFair
	wroteMB
	wroteUsage = wroteUseful - 1 // the usage bits
)

// addUsage charges occupied GPU-seconds on generation g.
func (b *userBooks) addUsage(g gpu.Generation, amount float64) {
	b.usage[g] += amount
	b.wrote |= 1 << g
}

// New builds a simulation for a policy: the engine with the simulated
// executor and the profiler the config describes. The config is
// validated.
func New(cfg Config, policy Policy) (*Sim, error) {
	cfg = cfg.withDefaults()
	prof, err := profiler.New(cfg.ProfilerNoise, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return NewWithExecutor(cfg, policy, LocalExecutor{}, prof)
}

// NewWithExecutor builds the engine around an executor and a profiler
// of the caller's (the distributed central passes its dispatch/collect
// protocol and a noiseless profiler: its agents report true rates). The
// config is validated (ProfilerNoise included), but
// the estimates follow the given profiler's parameters and seed.
func NewWithExecutor(cfg Config, policy Policy, exec Executor, prof *profiler.Profiler) (*Sim, error) {
	return newEngine(cfg, policy, exec, prof, cfg.Specs)
}

// newEngine is the one construction path behind New, NewWithExecutor
// and Restore. It validates the config, whose Specs are the whole
// workload (they fix the users and their tables), and builds the event
// cursor once, over arrivals: the workload itself for a fresh engine,
// a checkpoint's pending specs for a restored one. When the fault
// model draws nothing it also builds the fault sweep (see buildFaults).
func newEngine(cfg Config, policy Policy, exec Executor, prof *profiler.Profiler, arrivals []job.Spec) (*Sim, error) {
	if policy == nil || exec == nil || prof == nil {
		return nil, fmt.Errorf("core: nil policy, executor or profiler")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	owners := placement.NewOwners(cfg.Cluster)
	s := &Sim{
		cfg:     cfg,
		clock:   simclock.New(),
		policy:  policy,
		exec:    exec,
		prof:    prof,
		log:     &trace.Log{},
		tickets: make(map[job.UserID]float64),
		pidx:    placement.NewIndex(cfg.Cluster),
		owners:  owners,
		aud:     newAuditor(cfg.Audit, cfg.Cluster, cfg.Quantum, owners),
		obs:     cfg.Obs,
	}
	s.place = s.placeIndexed
	s.fcfg = cfg.Faults.WithDefaults()
	if !s.drawsFaults() {
		s.buildFaults(nil)
	}
	s.finj = faults.NewInjector(s.fcfg, cfg.Quantum, cfg.Seed)
	s.breaker = faults.NewBreaker(s.fcfg)
	if cfg.TraceCap > 0 {
		s.log.SetCap(cfg.TraceCap)
	}
	if cfg.Obs != nil {
		s.robs = &RoundObs{o: cfg.Obs}
	}
	// The nil check matters: SetSink takes an interface, and wrapping
	// a typed-nil *Recorder would defeat the sink == nil fast path.
	if cfg.Flight != nil {
		cfg.Obs.SetSink(cfg.Flight)
	}
	s.evq = newEventCursor(arrivals, cfg.TicketChanges)
	jobsOf := make(map[job.UserID]int) // the workload's users and their job counts
	for i := range cfg.Specs {
		jobsOf[cfg.Specs[i].User]++
	}
	for u := range jobsOf {
		if t, ok := cfg.Tickets[u]; ok {
			s.tickets[u] = t
		} else {
			s.tickets[u] = 1
		}
	}
	s.users = job.SortedUsers(s.tickets)
	s.log.Intern(s.users)
	s.tl = metrics.NewTimeline(cfg.TimelineWindow, s.users)
	n := len(s.users)
	perUser := make([]float64, 4*n)
	s.userTickets, s.demand, s.shares, s.deficit = perUser[:n], perUser[n:2*n], perUser[2*n:3*n], perUser[3*n:]
	s.pending = make([]int32, n)
	s.books = make([]userBooks, n)
	s.comp = make([]compBooks, n)
	for i, u := range s.users {
		s.userTickets[i] = s.tickets[u]
		s.comp[i] = compBooks{user: u, jobs: jobsOf[u]}
	}
	return s, nil
}

// userAt returns a user's position in s.users, or -1 for a user the
// workload does not have.
func (s *Sim) userAt(u job.UserID) int {
	if i, ok := slices.BinarySearch(s.users, u); ok {
		return i
	}
	return -1
}

// Run simulates until the horizon or until every job finishes,
// whichever comes first, and returns the result. Run may be called
// once per Sim. With a flight recorder configured, any round-loop
// error or panic dumps the recorder's window before surfacing.
func (s *Sim) Run(until simclock.Time) (*Result, error) {
	if until <= 0 {
		return nil, fmt.Errorf("core: non-positive horizon")
	}
	if s.fsweep == nil {
		if err := s.materializeFaults(until); err != nil {
			return nil, err
		}
	}
	for {
		more, err := s.Step(until)
		if err != nil {
			return nil, err
		}
		if !more {
			return s.Result(), nil
		}
	}
}

// Step advances the schedule through its next scheduling round — past
// any idle gap before it — and reports whether it ran one; false means
// the horizon is reached or every job has finished. It is Run's loop
// body, exported for callers that interleave rounds with work of their
// own (the distributed central: control traffic, snapshots).
func (s *Sim) Step(until simclock.Time) (ran bool, err error) {
	if s.fsweep == nil {
		s.buildFaults(nil) // not driven by Run: the declared failures alone
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
	for s.clock.Now() < until {
		if len(s.jobs) == 0 {
			// Fast-forward idle gaps to the next arrival, aligned to
			// the quantum grid so rounds stay comparable. Waking only
			// for arrivals is sound: with nothing active, ticket and
			// fault events are observationally idempotent until then
			// (see eventCursor).
			next, ok := s.evq.nextArrival()
			if !ok || next >= until {
				return false, nil // all done, or nothing more before the horizon
			}
			aligned := simclock.Time(float64(int(float64(next)/s.cfg.Quantum)) * s.cfg.Quantum)
			if aligned > s.clock.Now() {
				s.clock.RunUntil(aligned)
			}
		}
		s.obs.PhaseStart(obs.PhaseArrivals)
		s.admitArrivals()
		s.obs.PhaseEnd(obs.PhaseArrivals)
		if len(s.jobs) == 0 {
			// The arrival is strictly inside the coming quantum: step
			// one quantum and retry.
			s.clock.RunUntil(s.clock.Now().Add(s.cfg.Quantum))
			continue
		}
		if err := s.runRound(); err != nil {
			return false, err
		}
		s.clock.RunUntil(s.clock.Now().Add(s.cfg.Quantum))
		return true, nil
	}
	return false, nil
}

// admitArrivals admits the arrivals due, growing the job list and the
// slot table once for the whole burst.
func (s *Sim) admitArrivals() {
	due := s.evq.popArrivalsDue(s.clock.Now())
	s.jobs = slices.Grow(s.jobs, len(due))
	s.slots = slices.Grow(s.slots, max(len(due)-len(s.free), 0))
	for i := range due {
		spec := &due[i]
		j, err := s.admitted.New(*spec)
		if err != nil {
			panic(fmt.Sprintf("core: validated spec rejected: %v", err)) // unreachable
		}
		s.admit(j)
		s.emit(trace.Record{At: spec.Arrival, Kind: trace.KindArrival, Job: j.ID, User: j.User,
			Name: spec.Perf.Model, N: int32(spec.Gang)})
	}
}

// admit enters a job into the active set, the sorted job list, the slot
// table and the fairness reference's demand, and tells it its slot and
// where its user is.
func (s *Sim) admit(j *job.Job) {
	at, _ := slices.BinarySearchFunc(s.jobs, j.ID, func(a *job.Job, id job.ID) int { return cmp.Compare(a.ID, id) })
	s.jobs = slices.Insert(s.jobs, at, j)
	if n := len(s.free); n > 0 {
		j.NoteSlot(int(s.free[n-1]))
		s.free = s.free[:n-1]
		s.slots[j.Slot()] = j
	} else {
		j.NoteSlot(len(s.slots))
		s.slots = append(s.slots, j)
	}
	j.NoteUser(s.userAt(j.User))
	s.demand[j.UserAt()] += float64(j.Gang)
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

// drawsFaults reports whether the fault model draws a server
// schedule: crashes, flaky servers or degradation.
func (s *Sim) drawsFaults() bool {
	return s.fcfg.ServerMTBFHours != 0 || s.fcfg.FlakyServers != 0 || s.fcfg.DegradeMTBFHours != 0
}

// materializeFaults draws the fault model's server schedule up to the
// horizon and builds the sweep over it with the declared failures.
// Run calls it before its first round when the model draws.
func (s *Sim) materializeFaults(until simclock.Time) error {
	// Exponential schedules are generated eagerly, so bound the horizon
	// against pathological callers (e.g. near-Forever).
	horizon := min(until, simclock.Time(365*simclock.Day))
	sched, err := faults.Generate(s.fcfg, s.cfg.Cluster.NumServers(), horizon, s.cfg.Seed)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	s.buildFaults(sched)
	return nil
}

// buildFaults compiles the fault timeline — the declared failures
// plus what sched drew, if anything — into sorted per-server intervals
// and builds the sweep that walks it, so no round rescans a failure
// list. Each engine calls it once: at construction when the model
// draws nothing, else from Run with the schedule drawn for Run's
// horizon, or from the first Step of an engine Run does not drive,
// which keeps the declared failures alone.
func (s *Sim) buildFaults(sched *faults.Schedule) {
	outages := declaredOutages(s.cfg.Failures)
	var degradations []faults.Degradation
	if sched != nil {
		outages = append(outages, sched.Outages...)
		degradations = sched.Degradations
	}
	s.fsweep = faults.NewSweep(faults.Compile(outages, degradations, s.cfg.Cluster.NumServers()))
}

// resultDeficit snapshots the outstanding compensation debt by user.
func (s *Sim) resultDeficit() map[job.UserID]float64 {
	out := make(map[job.UserID]float64, s.compOpen)
	for i := range s.comp {
		if c := &s.comp[i]; c.debt > 0 {
			out[c.user] = c.debt
		}
	}
	return out
}

// computeSLO derives the run's fairness SLO bundle. A job's
// standalone reference is its exclusive runtime on the fastest
// generation present in the cluster that it can use; Themis's N is
// the number of users of the workload — a ticket change naming a user
// with no jobs adds no one.
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
	return metrics.ComputeSLO(runs, len(s.users))
}

// Result reports the outcome so far: what Run returns at the horizon,
// and what a caller driving Step reads between rounds. Its per-user maps
// are built for the call from the engine's books, one map per book and
// none per user.
func (s *Sim) Result() *Result {
	s.obs.Emit(s.flush()...) // what was recorded since the last round closed
	// Completion order: nothing else reads s.finished's order, so it is
	// sorted here, not after every round's retirements.
	slices.SortFunc(s.finished, func(a, b *job.Job) int {
		if c := cmp.Compare(a.FinishTime(), b.FinishTime()); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	var busy, capTotal float64
	utilByGen := make(map[gpu.Generation]metrics.Utilization, gpu.NumGenerations)
	for g, c := range s.capByGen {
		if c == 0 {
			continue // never had capacity
		}
		b := s.busyByGen[g]
		utilByGen[gpu.Generation(g)] = metrics.Utilization{BusyGPUSeconds: b, CapacityGPUSeconds: c}
		busy += b
		capTotal += c
	}
	useful, fair, mb := s.scalarBooks()
	slo := s.computeSLO()
	if s.obs != nil {
		s.obs.SetSLO(slo.RhoByUser, map[string]float64{
			"0.5": slo.JCT.Median, "0.95": slo.JCT.P95, "0.99": slo.JCT.P99,
		}, slo.MakespanSeconds)
	}
	return &Result{
		Policy:               s.policy.Name(),
		Finished:             s.finished,
		Unfinished:           len(s.jobs) + s.evq.pendingCount(),
		UsageByUserGen:       s.usageRows(),
		UsefulByUser:         useful,
		FairUsageByUser:      fair,
		ThroughputByUser:     mb,
		Utilization:          metrics.Utilization{BusyGPUSeconds: busy, CapacityGPUSeconds: capTotal},
		UtilByGen:            utilByGen,
		Migrations:           s.recorded[trace.KindMigration.LogIndex()],
		TradeCount:           s.recorded[trace.KindTrade.LogIndex()],
		Crashes:              s.recorded[trace.KindJobCrash.LogIndex()],
		MigrationFailures:    s.recorded[trace.KindMigFail.LogIndex()],
		Quarantines:          s.recorded[trace.KindQuarantine.LogIndex()],
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

// usageRows renders the usage books as Result carries them: a user has
// a row iff the engine ever charged them usage, and a generation never
// charged reads 0 — it was never written. The map is the one allocation.
func (s *Sim) usageRows() map[job.UserID][gpu.NumGenerations]float64 {
	usage := make(map[job.UserID][gpu.NumGenerations]float64, len(s.users))
	for i, u := range s.users {
		if b := &s.books[i]; b.wrote&wroteUsage != 0 {
			usage[u] = b.usage
		}
	}
	return usage
}

// scalarBooks renders the useful, fair-reference and throughput books
// as the maps Result and Checkpoint carry: a user has a key iff the
// engine ever wrote that entry.
func (s *Sim) scalarBooks() (useful, fair, mb map[job.UserID]float64) {
	n := len(s.users)
	useful = make(map[job.UserID]float64, n)
	fair = make(map[job.UserID]float64, n)
	mb = make(map[job.UserID]float64, n)
	for i, u := range s.users {
		b := &s.books[i]
		if b.wrote&wroteUseful != 0 {
			useful[u] = b.useful
		}
		if b.wrote&wroteFair != 0 {
			fair[u] = b.fair
		}
		if b.wrote&wroteMB != 0 {
			mb[u] = b.mb
		}
	}
	return useful, fair, mb
}

// checkpointUsage renders the usage books as Checkpoint's JSON carries
// them: a user and generation have a key iff the engine ever charged
// that generation, which Restore reads back as written bits.
func (s *Sim) checkpointUsage() map[job.UserID]map[gpu.Generation]float64 {
	usage := make(map[job.UserID]map[gpu.Generation]float64, len(s.users))
	for i, u := range s.users {
		b := &s.books[i]
		if b.wrote&wroteUsage == 0 {
			continue
		}
		byGen := make(map[gpu.Generation]float64)
		for g, v := range b.usage {
			if b.wrote&(1<<g) != 0 {
				byGen[gpu.Generation(g)] = v
			}
		}
		usage[u] = byGen
	}
	return usage
}
