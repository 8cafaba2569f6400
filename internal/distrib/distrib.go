// Package distrib runs Gandiva_fair as the distributed system the
// paper deploys: a central scheduler making round decisions and one
// agent per server executing its slice of the plan, connected by the
// comm transports (in-memory for tests, TCP for real processes).
//
// The central scheduler runs the simulation core's round engine itself
// (core.Sim) — distribution only changes who executes a quantum and how
// the results travel back, which is the engine's executor seam. Job
// state crosses the wire on every (re)placement (checkpoint semantics),
// so agents are stateless and migration falls out of the protocol.
package distrib

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/migrate"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/span"
	"repro/internal/profiler"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// ErrTransportClosed reports that an agent's transport closed before
// the central scheduler sent Shutdown — a central crash or network
// partition. Callers that support rejoin redial and Run again.
var ErrTransportClosed = errors.New("distrib: transport closed before shutdown")

// Agent executes round plans for one server. Run blocks until
// Shutdown or transport closure.
//
// Beyond plain execution the agent speaks the partition-tolerant
// protocol: it verifies envelope checksums, drops duplicate
// deliveries, fences plans from stale central epochs, and keeps local
// job state and a backlog of unacknowledged reports for as long as the
// plans' lease, so a report-path partition degrades service instead of
// losing work (the central reconciles the backlog on heal; a lease of
// zero rounds covers nothing past the next plan). All of that state is
// plan-paced: the agent never speculates on wall-clock time, so runs
// stay deterministic.
type Agent struct {
	tr      comm.Transport
	central string
	gen     gpu.Generation
	gpus    int
	obs     *obs.Observer
	retry   *comm.Retrier
	tracer  *span.Tracer // lazily created on the first traced plan

	dedup     *comm.Dedup
	epoch     int // newest central epoch seen (0 until the first plan)
	lastRound int // newest round executed within the current epoch
	// local carries whole jobs' progress, sorted by job ID, so a
	// degraded agent keeps training past a stale plan's checkpoint
	// instead of redoing work the central never heard about. spare is
	// the array the next rebuild of local writes into.
	local []localJob //gflint:noretain swapped with spare and rebuilt in place
	spare []localJob //gflint:noretain
	// backlog holds executed-but-unacknowledged reports, oldest
	// first; it is resent ahead of each new report and pruned by the
	// plans' cumulative AckRound.
	backlog []comm.RoundReport
	// progBlock is what is left of the block the reports' job lists
	// are carved from (see newProgress).
	progBlock []comm.JobProgress
}

// progBlockSize is how many JobProgress entries one block holds. An
// agent reports at most one job per GPU, so a block serves a 4-GPU
// agent for 16 rounds or more. On gfperf's dist-hub, 256-entry blocks
// saved another 10 allocations a round but allocated 3 % more bytes
// and peaked 9 % higher in RSS.
const progBlockSize = 64

// newProgress hands out a job list of n entries for one report. A
// report's list is never written after it is sent: the transport holds
// it, a delayed, reordered or duplicated copy may still be in flight
// after the central acknowledged it, and the backlog resends it, so no
// range is ever handed out twice. Lists are carved from blocks of
// progBlockSize, and a block is collected once no report carved from it
// is referenced.
func (a *Agent) newProgress(n int) []comm.JobProgress {
	if n == 0 {
		return nil
	}
	if len(a.progBlock) < n {
		a.progBlock = make([]comm.JobProgress, max(n, progBlockSize))
	}
	jobs := a.progBlock[:n:n]
	a.progBlock = a.progBlock[n:]
	return jobs
}

// localJob is one whole job's progress as the agent last computed it.
type localJob struct {
	id   int64
	done float64
}

// findLocal binary-searches local (sorted by job ID) for id.
func findLocal(local []localJob, id int64) (int, bool) {
	return slices.BinarySearchFunc(local, id, func(l localJob, id int64) int { return cmp.Compare(l.id, id) })
}

// setLocal records job id's progress in local, in job-ID order.
func (a *Agent) setLocal(id int64, done float64) {
	if i, ok := findLocal(a.local, id); ok {
		a.local[i].done = done
	} else {
		a.local = slices.Insert(a.local, i, localJob{id: id, done: done})
	}
}

// SetObserver attaches instrumentation (nil is fine and is the
// default: every observer method is nil-safe).
func (a *Agent) SetObserver(o *obs.Observer) { a.obs = o }

// note records one protocol event of the agent's. Agents run beside the
// engine, not inside it, so theirs go to the observer directly.
func (a *Agent) note(event string) {
	a.obs.Emit(trace.Record{Kind: trace.KindProtocol, Name: event})
}

// SetRetry replaces the default send retry/backoff policy.
func (a *Agent) SetRetry(pol comm.RetryPolicy) { a.retry = newRetrier(pol, a.note) }

// newRetrier builds a send retrier that notes every retry as a
// send_retry event before calling the policy's own OnRetry.
func newRetrier(pol comm.RetryPolicy, note func(event string)) *comm.Retrier {
	user := pol.OnRetry
	pol.OnRetry = func(n int, err error) {
		note("send_retry")
		if user != nil {
			user(n, err)
		}
	}
	return comm.NewRetrier(pol)
}

// NewAgent wires an agent for a server of gpus devices of one
// generation.
func NewAgent(tr comm.Transport, central string, gen gpu.Generation, gpus int) (*Agent, error) {
	if tr == nil {
		return nil, fmt.Errorf("distrib: nil transport")
	}
	if !gen.Valid() || gpus <= 0 {
		return nil, fmt.Errorf("distrib: invalid server inventory")
	}
	a := &Agent{tr: tr, central: central, gen: gen, gpus: gpus, dedup: comm.NewDedup()}
	a.retry = newRetrier(comm.RetryPolicy{}, a.note)
	return a, nil
}

// Run registers with the central scheduler and serves round plans
// until shut down. It is the agent's one loop over its transport: step
// decides what each envelope means, and Run sends the reports step
// returns. Sends go through the retry/backoff policy, so a transient
// wire failure does not kill the agent. Returns ErrTransportClosed when
// the connection dies before Shutdown, so supervisors can distinguish a
// crash from a clean exit.
func (a *Agent) Run() error {
	err := a.retry.Send(a.tr, a.central, comm.Envelope{From: a.tr.Name(), Msg: comm.Register{
		Agent: a.tr.Name(), Gen: int(a.gen), GPUs: a.gpus,
	}})
	if err != nil {
		return err
	}
	a.note("register_sent")
	for env := range a.tr.Recv() {
		reps, exit, err := a.step(env)
		if exit {
			return err
		}
		a.send(reps)
	}
	return ErrTransportClosed
}

// step takes one received envelope through the agent's protocol and
// sends nothing: the receive check (comm.Dedup.Admit: verify the
// checksum, drop duplicate deliveries), the registration ack, and for a
// plan epoch fencing, the backlog's cumulative ack, the lease and
// execution. It returns the reports to send — after a plan it runs, the
// whole backlog, oldest first and its newest entry the plan's report,
// valid until the next step — and whether Run exits, with the error it
// exits with: a rejected registration, or nil on Shutdown.
func (a *Agent) step(env comm.Envelope) (reps []comm.RoundReport, exit bool, err error) {
	if event := a.dedup.Admit(env); event != "" {
		a.note(event)
		return nil, false, nil
	}
	switch m := env.Msg.(type) {
	case comm.RegisterAck:
		if !m.OK {
			return nil, true, fmt.Errorf("distrib: registration rejected: %s", m.Reason)
		}
	case comm.RoundPlan:
		if m.Epoch < a.epoch {
			// A plan from a dead central incarnation: acting on it would
			// split-brain the cluster.
			a.note("fence_reject")
			return nil, false, nil
		}
		if m.Epoch > a.epoch {
			// New central incarnation: everything local belongs to an
			// epoch whose books are closed. The plan's checkpoint is the
			// authoritative restart point.
			a.epoch = m.Epoch
			a.lastRound = 0
			a.local = nil
			a.backlog = nil
		}
		if m.Round <= a.lastRound {
			// Duplicate or reordered plan for a round already executed;
			// running it again would double work.
			a.note("stale_plan_dropped")
			return nil, false, nil
		}
		a.note("plan_received")
		a.pruneAcked(m.AckRound)
		if len(a.backlog) > 0 && a.backlog[0].Round <= m.Round-m.Lease {
			// Lease expired: the oldest unacknowledged round has aged out
			// of the central's reconciliation window, so that work can
			// never be credited. Park at the plan's checkpoint: drop
			// local state and resync to the central's view. Under a lease
			// of zero rounds that is any report the central had not
			// counted by this plan.
			a.local = nil
			a.backlog = nil
			a.note("lease_expired")
		}
		rep := a.execute(m)
		a.lastRound = m.Round
		a.backlog = append(a.backlog, rep)
		return a.backlog, false, nil
	case comm.Shutdown:
		return nil, true, nil
	}
	return nil, false, nil
}

// pruneAcked drops backlog entries the central has applied (AckRound
// is a cumulative ack). The array is kept: a steady lease holds one
// entry, pruned and refilled every round.
func (a *Agent) pruneAcked(ackRound int) {
	n := 0
	for n < len(a.backlog) && a.backlog[n].Round <= ackRound {
		n++
	}
	a.backlog = append(a.backlog[:0], a.backlog[n:]...)
}

// send ships the reports step returned, oldest first. Replayed entries
// are idempotent at the central: its per-agent window drops rounds it
// already counted. When the report path is down the agent keeps
// executing plans (they may still arrive on an asymmetric partition)
// and keeps buffering: the central reconciles what the lease covers on
// heal, and a later plan parks the rest.
func (a *Agent) send(reps []comm.RoundReport) {
	if len(reps) == 0 {
		return
	}
	for _, r := range reps {
		if err := a.retry.Send(a.tr, a.central, comm.Envelope{From: a.tr.Name(), Msg: r}); err != nil {
			a.note("report_send_failed")
			return
		}
	}
	a.note("report_sent")
}

// execute runs one quantum's worth of training for the assigned jobs.
// The agent is stateless apart from tracing: everything it needs to
// compute arrives in the plan; when the plan carries a trace context,
// the agent's spans parent under the central round root and ride back
// on the report.
func (a *Agent) execute(plan comm.RoundPlan) comm.RoundReport {
	rep := comm.RoundReport{Agent: a.tr.Name(), Round: plan.Round, Epoch: plan.Epoch,
		Jobs: a.newProgress(len(plan.Jobs))}
	var execSpan span.ID
	traced := plan.Trace != 0
	if traced {
		if a.tracer == nil {
			a.tracer = span.New(a.tr.Name(), span.DefaultCap)
		}
		a.tracer.BeginRemote(plan.Trace, plan.Round, 0, "agent-round", span.ID(plan.Span))
		execSpan = a.tracer.Start(string(obs.PhaseExecute))
	}
	known := &a.local // where earlier rounds' progress is looked up
	if len(a.backlog) == 0 {
		// Nothing awaits reconciliation, so local state for jobs no
		// longer assigned here is stale (they migrated or finished;
		// their truth lives centrally), and keeping it could skip work
		// if a job ever returns after the central discarded progress:
		// local becomes exactly this plan's whole-job progress.
		a.local, a.spare = slices.Grow(a.spare[:0], a.gpus), a.local
		known = &a.spare
	}
	for k, as := range plan.Jobs {
		useful := plan.Quantum - as.Overhead
		if useful < 0 {
			useful = 0
		}
		done := as.DoneMB
		// Whole jobs (never cross-server shards) trust local progress
		// over the plan's checkpoint: a plan built while our reports
		// were cut off carries a stale base, and redoing that work
		// would both waste the quantum and double-charge usage once the
		// backlog reconciles.
		whole := as.Shard >= 1
		if i, ok := findLocal(*known, as.JobID); whole && ok && (*known)[i].done > done {
			done = (*known)[i].done
		}
		done, used, finished := job.Progress(done, as.TotalMB, as.GangRate, useful)
		if whole {
			a.setLocal(as.JobID, done)
		}
		rep.Jobs[k] = comm.JobProgress{
			JobID: as.JobID, DoneMB: done, Finished: finished, UsedSecs: used,
		}
	}
	if traced {
		a.tracer.End(execSpan)
		a.tracer.EndRound()
		rep.Spans = a.tracer.RoundSpans(plan.Round)
	}
	return rep
}

// ---------------------------------------------------------------------------
// Central scheduler

// CentralConfig drives the central scheduler.
type CentralConfig struct {
	Specs   []job.Spec
	Tickets map[job.UserID]float64

	// Quantum is the virtual training time per round in seconds
	// (default 360). Rounds execute as fast as the agents answer —
	// the distributed run is still a simulation of training time, it
	// just executes on real processes over a real wire.
	Quantum simclock.Duration

	// Costs is the overhead model used to compute the per-assignment
	// overhead sent to agents.
	Costs migrate.CostModel

	// ReportTimeout is the straggler cutoff (default 5 s of wall time):
	// the collect phase proceeds without agents that have not reported
	// by then, charges their jobs as misses, and reconciles their late
	// reports idempotently in a following round when the lease covers
	// them.
	// A silent agent's jobs make no progress that quantum and are
	// replaced elsewhere once it is suspected (their state lives in the
	// engine, so nothing is lost).
	ReportTimeout time.Duration

	// LeaseRounds is the length of the lease every plan grants its
	// agent. An agent cut off from the central keeps executing its
	// latest plans on local state and buffers unacknowledged reports
	// until the lease expires, then parks at the plan checkpoint; the
	// central keeps the agent's placement sticky for
	// suspectThreshold+LeaseRounds missed rounds, probes it while it is
	// unheard from, and reconciles the buffered reports that are at most
	// LeaseRounds rounds old when the partition heals, so fairness books
	// balance. Zero, the default, is a lease of zero rounds: the same
	// protocol with a one-round window, so nothing late is reconciled and
	// a report not counted by the next plan is parked.
	LeaseRounds int

	// MaxAgentTimeouts aborts the run after this many total missed
	// reports (guard against a permanently dead deployment). Zero
	// means 50.
	MaxAgentTimeouts int

	// Retry shapes the send retry/backoff (capped exponential with
	// jitter) wrapped around every plan, ack and shutdown send.
	// Zero-value fields take comm's documented defaults.
	Retry comm.RetryPolicy

	// SnapshotDir, when non-empty, persists the scheduler's full
	// state (jobs, usage, failure-detector counters) to
	// SnapshotDir/central.snap.json after every SnapshotEvery rounds
	// so a crashed coordinator can resume via RestoreCentral.
	SnapshotDir string

	// SnapshotEvery is the snapshot period in rounds (default 1).
	SnapshotEvery int

	// Obs receives metrics, phase timings, and decision explanations
	// for the central scheduler. Nil disables instrumentation at zero
	// cost (all observer methods are nil-safe).
	Obs *obs.Observer

	// Flight attaches a flight recorder to the engine, as
	// core.Config.Flight does: the observer feeds it one snapshot per
	// round, and Run dumps it on an audit violation, any other
	// round-loop error, or a panic.
	Flight *flight.Recorder
}

// Central is the coordinator: the round engine (core.Sim — admission,
// the policy's decision and its validation, placement, the cost
// arithmetic, the usage books, retirement, the auditor), the remote
// executor that carries the engine's quanta out on the agents, and the
// epoch/lease/dedup protocol that keeps that exactly-once over a faulty
// network. It keeps no job, usage or placement state of its own.
type Central struct {
	cfg    CentralConfig
	tr     comm.Transport
	policy core.Policy

	// ecfg is the engine's configuration, complete but for the cluster:
	// the registered agents define that, and eng is built then.
	ecfg core.Config
	eng  *core.Sim

	// agents holds one record per agent, sorted by name and fixed after
	// WaitForAgents. Every agent contributes one server and gpu.New
	// numbers servers in spec order, so agent i's server is ServerID(i);
	// agentIdx resolves a name off the wire to that position (while
	// agents register it holds their arrival positions).
	agents   []agent
	agentIdx map[string]int

	retry *comm.Retrier

	timeouts  int
	nMissed   int // agents with missed > 0; zero lets a round skip all failure bookkeeping
	nRejoined int // agents with an accepted rejoin, what WaitForRejoin waits on

	// Per-round tables, kept and cleared so a zero-fault round
	// allocates only what it hands away (the plan payloads).
	down   gpu.ServerSet  //gflint:noretain suspected-dead servers, the engine's unreachable set
	quanta []core.Quantum //gflint:noretain the engine's quanta while Execute runs
	nWant  int            // reports still awaited this round

	// Partition-tolerance state. epoch fences central incarnations
	// (fresh = 1, restored = snapshot+1); dedup drops duplicate
	// envelope deliveries; lateQ holds the late reports awaiting
	// reconciliation.
	epoch     int
	dedup     *comm.Dedup
	lateQ     []comm.RoundReport //gflint:noretain swapped with lateSpare while reconcileLate replays it
	lateSpare []comm.RoundReport //gflint:noretain
}

// agent is everything the central keeps about one agent, at the
// agent's position.
type agent struct {
	name string
	gen  gpu.Generation
	gpus int

	missed int     // consecutive missed reports (write through setMissed)
	shards []shard //gflint:noretain this round's slices of the quanta its plan carries
	want   bool    // this round's report still awaited
	acked  int     // newest round counted: the plans' cumulative AckRound
	// window is the lease's reconciliation window, LeaseRounds+1 slots
	// with round r in slot r % len: what the agent was asked to run in
	// each recent round, which is what a late report may be charged
	// against, and whether that round was counted.
	window []slot
	// plan is this round's message to the agent, built by plans and
	// shipped by dispatch: a work plan when it hosts shards, a probe
	// when probe is set, else nothing.
	plan     comm.RoundPlan
	probe    bool
	rejoined bool // a rejoin of it was accepted (counted in nRejoined)
}

// slot is one round of an agent's reconciliation window. It is
// overwritten in place when its round falls out of the window.
type slot struct {
	round   int
	applied bool           // the agent's report for round has been counted
	planned []plannedEntry //gflint:noretain the round's assignments, in plan (job-ID) order
}

// plannedEntry is what the central retains about one job's assignment
// to one agent in one round, for LeaseRounds rounds: the engine's
// granted quantum, so a late report can be verified and settled exactly
// as the on-time report would have been, and the agent's share of the
// gang. q.Answered records whether the engine settled an answer for the
// job's round, on time (mergeShards) or late (applyLate).
type plannedEntry struct {
	q    core.Quantum
	frac float64
}

// shard is the part of one quantum that runs on one agent: Devs[lo:hi]
// of it, all on that agent's server.
type shard struct {
	rec    int32 // index into the round's quanta
	lo, hi int32
	frac   float64 // the shard's share of the gang
	got    bool    // the agent reported it
}

// at is the window slot round r maps to.
func (a *agent) at(r int) *slot { return &a.window[r%len(a.window)] }

// open starts round's slot for the plan being built, with room for the
// most assignments a plan can carry: one per GPU. It held round −
// LeaseRounds − 1, which no report can be charged against any more.
//
//gflint:noretain
func (a *agent) open(round int) *slot {
	s := a.at(round)
	s.round, s.applied, s.planned = round, false, slices.Grow(s.planned[:0], a.gpus)
	return s
}

// settleLate decides a late report against the agent's window when
// round is the next to settle, and names the protocol event that
// records the decision. The window holds rounds round−LeaseRounds …
// round−1; a report outside it (always, under a lease of zero rounds) or
// for a round the agent was not asked to run charges nothing and names
// none. A round's report is counted once: apply is offered each
// whole-job assignment of that round's plan the report answers, and
// says whether it charged the answer.
func (a *agent) settleLate(rep comm.RoundReport, round int, apply func(pe *plannedEntry, p comm.JobProgress, r int) bool) string {
	r := rep.Round
	if r <= 0 || r >= round || r < round-(len(a.window)-1) {
		return ""
	}
	s := a.at(r)
	switch {
	case s.round != r:
		return ""
	case s.applied:
		// Backlog replay of a round already counted: the window absorbs it.
		return "late_report_dropped"
	}
	applied := false
	for _, p := range rep.Jobs {
		pe := s.entry(job.ID(p.JobID))
		if pe == nil || pe.frac < 1 {
			// Not planned here, or a cross-server shard: a shard's
			// progress only means something together with its siblings
			// in the same round, which is gone.
			continue
		}
		applied = apply(pe, p, r) || applied
	}
	a.counted(s)
	if applied {
		return "late_report_applied"
	}
	return "late_report_dropped"
}

// counted records that the agent's report for s's round has been
// counted: a backlog replay of it is never applied again, and the
// agent's cumulative ack advances.
func (a *agent) counted(s *slot) {
	s.applied = true
	a.acked = max(a.acked, s.round)
}

// entry finds job id among the slot's planned assignments, nil when
// the plan did not carry it.
//
//gflint:noretain
func (s *slot) entry(id job.ID) *plannedEntry {
	i, ok := slices.BinarySearchFunc(s.planned, id, func(pe plannedEntry, id job.ID) int { return cmp.Compare(pe.q.Job.ID, id) })
	if !ok {
		return nil
	}
	return &s.planned[i]
}

// answeredSince reports whether the engine has settled an answer for job
// id's quantum of round r or of a newer round, on any agent. When a
// report for round r is reconcilable every such round is still in the
// agents' windows: r is at most LeaseRounds old, and the slots of r and
// of every round since are not yet overwritten.
func answeredSince(agents []agent, id job.ID, r int) bool {
	for ai := range agents {
		for k := range agents[ai].window {
			if s := &agents[ai].window[k]; s.round >= r {
				if pe := s.entry(id); pe != nil && pe.q.Answered {
					return true
				}
			}
		}
	}
	return false
}

// NewCentral builds the coordinator. Call WaitForAgents before Run: the
// engine, and with it the validation of the workload against the
// inventory, comes into being when the agents have registered.
func NewCentral(tr comm.Transport, policy core.Policy, cfg CentralConfig) (*Central, error) {
	if tr == nil || policy == nil {
		return nil, fmt.Errorf("distrib: nil transport or policy")
	}
	if len(cfg.Specs) == 0 {
		return nil, fmt.Errorf("distrib: no jobs")
	}
	c, err := newCentral(tr, policy, cfg, 1)
	if err != nil {
		return nil, err
	}
	c.ecfg.Specs, c.ecfg.Tickets = cfg.Specs, cfg.Tickets
	return c, nil
}

// newCentral is the part of construction a fresh and a restored central
// share: operational defaults, the engine configuration less its
// workload and cluster, and the protocol state of incarnation epoch.
func newCentral(tr comm.Transport, policy core.Policy, cfg CentralConfig, epoch int) (*Central, error) {
	// Each is a count or a span: a negative lease would size the window
	// below one slot, a negative report timeout start every collect past
	// its deadline, a negative timeout budget abort the first round and a
	// negative snapshot period pass for the default.
	if cfg.LeaseRounds < 0 || cfg.ReportTimeout < 0 || cfg.SnapshotEvery < 0 || cfg.MaxAgentTimeouts < 0 {
		return nil, fmt.Errorf("distrib: negative setting: lease %d rounds, report timeout %v, snapshot every %d rounds, %d agent timeouts",
			cfg.LeaseRounds, cfg.ReportTimeout, cfg.SnapshotEvery, cfg.MaxAgentTimeouts)
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = 360 // the engine's default; plans carry it
	}
	if cfg.ReportTimeout == 0 {
		cfg.ReportTimeout = 5 * time.Second
	}
	if cfg.MaxAgentTimeouts == 0 {
		cfg.MaxAgentTimeouts = 50
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = 1
	}
	c := &Central{
		cfg:      cfg,
		tr:       tr,
		policy:   policy,
		ecfg:     core.Config{Quantum: cfg.Quantum, Costs: cfg.Costs, Obs: cfg.Obs, Flight: cfg.Flight, TraceCap: traceCap},
		agentIdx: make(map[string]int),
		epoch:    epoch,
		dedup:    comm.NewDedup(),
	}
	c.emit(trace.Record{Kind: trace.KindEpoch, N: int32(epoch)})
	// The sequence space is epoch-salted so a restarted central's
	// envelopes are never mistaken for replays of its predecessor's (or
	// vice versa) by agents that kept dedup history.
	pol := cfg.Retry
	pol.SeqBase = uint64(epoch) << 32
	c.retry = newRetrier(pol, c.note)
	return c, nil
}

// emit records one occurrence of the protocol's in the engine's event
// stream — or, before the agents have registered and the engine exists,
// with the observer directly.
func (c *Central) emit(r trace.Record) {
	if c.eng == nil {
		c.cfg.Obs.Emit(r)
		return
	}
	c.eng.Emit(r)
}

// note records one protocol event that only the observer counts.
func (c *Central) note(event string) {
	c.emit(trace.Record{Kind: trace.KindProtocol, Name: event})
}

// traceCap bounds the engine's event log to its most recent events. A
// coordinator runs for as long as its cluster does, so nothing it keeps
// may grow with the round count; a saturated cluster logs a hundred
// migrations a round.
const traceCap = 1 << 13

// inbound takes one received envelope through the coordinator's one
// receive path, in order: the receive check (comm.Dedup.Admit: verify
// the checksum, drop duplicate deliveries; corruption is counted, never
// applied), fence dead epochs, and act on what is left — a registration
// (before the engine exists), a rejoin (after), the report of the round
// being collected, a late report (queued for reconcileLate), or proof
// of life (a probe answer, or a replayed copy of a report already
// accepted). round is the round being collected, 0 between rounds, when
// every report is late.
func (c *Central) inbound(env comm.Envelope, round int) {
	if event := c.dedup.Admit(env); event != "" {
		c.note(event)
		return
	}
	switch m := env.Msg.(type) {
	case comm.Register:
		if c.eng == nil {
			c.register(m)
		} else {
			c.handleRejoin(m)
		}
	case comm.RoundReport:
		switch ai, known := c.agentIdx[m.Agent]; {
		case c.fenced(m) || c.eng == nil:
			// A dead incarnation's, or sent before there was a round.
		case round == 0 || m.Round < round:
			// A straggler's earlier round or a healed agent's backlog:
			// queued for idempotent reconciliation.
			c.lateQ = append(c.lateQ, m)
		case known:
			c.noteAlive(ai)
			if m.Round == round && c.agents[ai].want {
				c.report(ai, m, round)
			}
		}
	}
}

// expired is a deadline that has passed.
var expired = make(chan time.Time)

func init() { close(expired) }

// receive is the coordinator's one loop over its transport: it takes
// envelopes through inbound, collecting round (0 between rounds), until
// done holds or the deadline passes. Once the deadline has passed it
// still takes what the inbox already holds, so an expired deadline
// drains the inbox without waiting. It returns false when the transport
// closed first.
func (c *Central) receive(round int, deadline <-chan time.Time, done func() bool) bool {
	for !done() {
		select {
		case env, ok := <-c.tr.Recv():
			if !ok {
				return false
			}
			c.inbound(env, round)
		case <-deadline:
			if len(c.tr.Recv()) == 0 {
				return true
			}
			deadline = expired
		}
	}
	return true
}

// fenced reports whether a round report belongs to an epoch other than
// the central's own.
func (c *Central) fenced(rep comm.RoundReport) bool {
	if rep.Epoch == c.epoch {
		return false
	}
	c.emit(trace.Record{Kind: trace.KindFenceReject, Name: rep.Agent, N: int32(rep.Round), M: int32(rep.Epoch)})
	return true
}

// report takes agent ai's report for the round being collected: the
// report is counted on time, and each shard it answers records the
// answer (the gang's first server answers for the whole gang; progress
// for a job the plan did not carry has nothing to be charged against
// and is dropped).
func (c *Central) report(ai int, rep comm.RoundReport, round int) {
	a := &c.agents[ai]
	a.want = false
	c.nWant--
	c.note("report_received")
	a.counted(a.at(round))
	if len(rep.Spans) > 0 {
		c.cfg.Obs.Tracer().Inject(rep.Spans)
	}
	for _, p := range rep.Jobs {
		sh := c.shardOf(ai, p.JobID)
		if sh == nil || sh.got {
			continue
		}
		sh.got = true
		if sh.lo == 0 {
			q := &c.quanta[sh.rec]
			q.DoneMB, q.UsedSecs, q.Finished = p.DoneMB, p.UsedSecs, p.Finished
		}
	}
}

// setMissed writes agent ai's consecutive-miss counter, keeping
// nMissed in step.
func (c *Central) setMissed(ai, n int) {
	switch was := c.agents[ai].missed; {
	case was == 0 && n > 0:
		c.nMissed++
	case was > 0 && n == 0:
		c.nMissed--
	}
	c.agents[ai].missed = n
}

// noteAlive records proof of life from agent ai: its miss counter
// resets, and if it had been cut off long enough to be suspected the
// recovery is a partition heal.
func (c *Central) noteAlive(ai int) {
	if c.agents[ai].missed >= suspectThreshold {
		c.emit(trace.Record{Kind: trace.KindPartitionHeal, Name: c.agents[ai].name})
	}
	c.setMissed(ai, 0)
}

// WaitForAgents blocks until n distinct agents registered (or
// timeout), builds the cluster inventory from their announcements and
// the engine on it, and acks each. The engine validates the workload
// against the inventory as core.New does — duplicate job IDs, a job
// that fits no registered generation, a gang larger than every one —
// and that error is returned.
func (c *Central) WaitForAgents(n int, timeout time.Duration) error {
	//gflint:ignore wallclock registration deadline on a real transport, not simulated time
	if !c.receive(0, time.After(timeout), func() bool { return len(c.agents) >= n }) {
		return fmt.Errorf("distrib: transport closed during registration")
	}
	if len(c.agents) < n {
		return fmt.Errorf("distrib: only %d of %d agents registered", len(c.agents), n)
	}
	if err := c.buildEngine(nil); err != nil {
		return err
	}
	for _, a := range c.agents {
		if err := c.retry.Send(c.tr, a.name, comm.Envelope{From: c.tr.Name(), Msg: comm.RegisterAck{OK: true}}); err != nil {
			return err
		}
	}
	return nil
}

// register records one agent's announcement while the inventory is
// open. A retried registration for an already-known name is idempotent
// when the inventory matches and rejected when it does not, so
// duplicate Register messages cannot corrupt the inventory.
func (c *Central) register(reg comm.Register) {
	g := gpu.Generation(reg.Gen)
	i, known := c.agentIdx[reg.Agent]
	switch {
	case !g.Valid() || reg.GPUs <= 0:
		c.ackRegister(reg.Agent, false, "invalid inventory")
	case !known:
		c.agentIdx[reg.Agent] = len(c.agents)
		c.agents = append(c.agents, agent{name: reg.Agent, gen: g, gpus: reg.GPUs})
		c.note("register_received")
	case c.agents[i].gen == g && c.agents[i].gpus == reg.GPUs:
		// Retried registration: already recorded, the one ack
		// WaitForAgents sends covers it.
		c.note("register_duplicate")
	default:
		c.ackRegister(reg.Agent, false, fmt.Sprintf(
			"agent %q already registered with %d× %v", reg.Agent, c.agents[i].gpus, c.agents[i].gen))
	}
}

// buildEngine derives deterministic server IDs from the registered
// agents — sort by name, one server each, so agent i's server is
// ServerID(i) — sizes each agent's lease window, and builds the engine
// on that cluster: fresh, or from a checkpoint when restoring. The
// engine's profiler is noiseless: agents report true rates.
func (c *Central) buildEngine(cp *core.Checkpoint) error {
	slices.SortFunc(c.agents, func(a, b agent) int { return cmp.Compare(a.name, b.name) })
	specs := make([]gpu.Spec, len(c.agents))
	for i := range c.agents {
		a := &c.agents[i]
		specs[i] = gpu.Spec{Gen: a.gen, Servers: 1, GPUsPerSrv: a.gpus}
		c.agentIdx[a.name] = i
		a.window = make([]slot, c.cfg.LeaseRounds+1)
	}
	cluster, err := gpu.New(specs...)
	if err != nil {
		return err
	}
	c.ecfg.Cluster = cluster
	prof := profiler.MustNew(0, 1)
	if cp != nil {
		c.eng, err = core.Restore(c.ecfg, c.policy, (*remoteExecutor)(c), prof, cp)
	} else {
		c.eng, err = core.NewWithExecutor(c.ecfg, c.policy, (*remoteExecutor)(c), prof)
	}
	return err
}

// ackRegister answers a Register best-effort (the agent re-registers
// if the ack is lost, so a failed ack send is not fatal).
func (c *Central) ackRegister(name string, ok bool, reason string) {
	_ = c.retry.Send(c.tr, name, comm.Envelope{From: c.tr.Name(),
		Msg: comm.RegisterAck{OK: ok, Reason: reason}})
}

// handleRejoin reconciles a mid-run re-registration against the
// fixed inventory: a known agent announcing its original inventory
// is welcomed back (its server is marked up and its failure counter
// reset, and it counts towards nRejoined once); anything else is
// rejected with a reason. Returns whether the rejoin was accepted.
func (c *Central) handleRejoin(reg comm.Register) bool {
	g := gpu.Generation(reg.Gen)
	i, known := c.agentIdx[reg.Agent]
	switch {
	case !known:
		c.ackRegister(reg.Agent, false, fmt.Sprintf(
			"unknown agent %q: the inventory is fixed after startup", reg.Agent))
	case c.agents[i].gen != g || c.agents[i].gpus != reg.GPUs:
		c.ackRegister(reg.Agent, false, fmt.Sprintf(
			"inventory mismatch: %q registered %d× %v, rejoined with %d× %v",
			reg.Agent, c.agents[i].gpus, c.agents[i].gen, reg.GPUs, g))
	default:
		c.setMissed(i, 0)
		if !c.agents[i].rejoined {
			c.agents[i].rejoined = true
			c.nRejoined++
		}
		c.ackRegister(reg.Agent, true, "")
		c.note("rejoin_accepted")
		return true
	}
	c.note("rejoin_rejected")
	return false
}

// reconcileLate replays queued late reports against the agents'
// windows before round `round` plans. Each (agent, round) report is
// applied at most once, only for whole-job assignments the central
// actually planned on that agent, and only when it advances the job —
// so duplicated, reordered, and replayed backlog deliveries are all
// safe. Any late report is proof of life and heals the agent's failure
// detector even when its usage was already charged. Under a lease of
// zero rounds no late report is inside the window, and the queue is
// drained without applying.
func (c *Central) reconcileLate(round int) {
	if len(c.lateQ) == 0 {
		return
	}
	reps := c.lateQ
	c.lateQ = c.lateSpare[:0]
	// Oldest round first so multi-round backlogs replay in execution
	// order; ties by agent for determinism.
	slices.SortStableFunc(reps, func(a, b comm.RoundReport) int {
		return cmp.Or(cmp.Compare(a.Round, b.Round), cmp.Compare(a.Agent, b.Agent))
	})
	for _, rep := range reps {
		if ai, known := c.agentIdx[rep.Agent]; known {
			c.noteAlive(ai)
			if event := c.agents[ai].settleLate(rep, round, c.applyLate); event != "" {
				c.note(event)
			}
		}
	}
	// Drop the reports, and the job lists they hold, before the array
	// waits to take the next round's queue.
	clear(reps)
	c.lateSpare = reps[:0]
}

// applyLate settles a late answer for one whole-job assignment of round
// r when it advances the job, and reports whether it did.
func (c *Central) applyLate(pe *plannedEntry, p comm.JobProgress, r int) bool {
	j := pe.q.Job
	switch {
	case j.Finished():
		return false
	case answeredSince(c.agents, j.ID, r):
		return false // this or a newer round already counted this job
	case p.DoneMB < j.DoneMB()-1e-6:
		return false // stale progress; applying would move the job backwards
	}
	// Settled by the engine exactly as the on-time answer would have
	// been: the quantum is the one it granted that round.
	q := &pe.q
	q.Answered, q.DoneMB, q.UsedSecs, q.Finished = true, p.DoneMB, p.UsedSecs, p.Finished
	c.eng.ApplyLate(q)
	return true
}

// Summary reports the distributed run's outcome.
type Summary struct {
	// Rounds counts scheduling rounds actually executed; quanta that
	// passed with no active job (waiting for arrivals) are excluded.
	Rounds         int
	Finished       []*job.Job
	Unfinished     int
	UsageByUser    map[job.UserID]float64 // occupied GPU-seconds
	VirtualSeconds simclock.Duration
	// MissedReports counts agent round-reports that timed out and
	// were tolerated.
	MissedReports int
}

// Run executes up to maxRounds scheduling rounds (stopping early when
// all jobs finish) and shuts the agents down.
func (c *Central) Run(maxRounds int) (*Summary, error) {
	sum, err := c.Steps(maxRounds)
	if err != nil {
		return nil, err
	}
	c.ShutdownAgents()
	return sum, nil
}

// Steps advances the schedule by up to maxSteps scheduling rounds
// without shutting the agents down, so a supervisor (the chaos harness,
// an operator console) can interleave scheduling with control actions.
// It stops early when every job has finished. The returned summary
// reflects progress so far. Between the engine's rounds the protocol
// does its own work: control traffic, late reports, the failure
// detector's verdicts, snapshots.
func (c *Central) Steps(maxSteps int) (*Summary, error) {
	if c.eng == nil {
		return nil, fmt.Errorf("distrib: WaitForAgents first")
	}
	for step := 0; step < maxSteps; step++ {
		// What arrived between rounds takes the inbound path first:
		// rejoins, and reports whose collect phase had closed —
		// straggler or partition-buffered traffic, queued for
		// reconciliation so a healed agent's degraded-mode work is
		// credited.
		c.receive(0, expired, func() bool { return false })
		// Reconcile before the engine plans so plans carry the freshest
		// checkpoint (a healed agent's backlog may have advanced jobs
		// past what the central charged so far).
		c.reconcileLate(c.eng.Rounds() + 1)
		c.eng.SetUnreachable(c.downServers())
		ran, err := c.eng.Step(simclock.Forever)
		if err != nil {
			return nil, err
		}
		if !ran {
			break
		}
		c.emit(trace.Record{Kind: trace.KindDegraded, N: int32(c.degradedAgents())})
		if err := c.maybeSnapshot(); err != nil {
			return nil, err
		}
	}
	return c.summary(), nil
}

// ShutdownAgents tells every agent to exit (best-effort, retried).
func (c *Central) ShutdownAgents() {
	for _, a := range c.agents {
		_ = c.retry.Send(c.tr, a.name, comm.Envelope{From: c.tr.Name(), Msg: comm.Shutdown{}})
	}
}

func (c *Central) summary() *Summary {
	res := c.eng.Result()
	return &Summary{
		Rounds:         res.Rounds,
		Finished:       res.Finished,
		Unfinished:     res.Unfinished,
		UsageByUser:    res.TotalUsageByUser(),
		VirtualSeconds: simclock.Duration(res.End),
		MissedReports:  c.timeouts,
	}
}

// BusyAgents returns the names (sorted) of agents hosting at least
// one job in the most recent round's assignment. The chaos harness
// uses it to aim a kill at a server that actually has work.
func (c *Central) BusyAgents() []string {
	busy := make([]bool, len(c.agents))
	for _, devs := range c.eng.Placement() {
		for _, d := range devs {
			busy[c.ecfg.Cluster.Device(d).Server] = true
		}
	}
	var names []string
	for i, a := range c.agents { // sorted by name
		if busy[i] {
			names = append(names, a.name)
		}
	}
	return names
}

// suspectThreshold is how many consecutive missed reports mark an
// agent's server down until it reports again.
const suspectThreshold = 2

// downThreshold is the miss count at which an agent's server is
// treated as down. The lease extends the base threshold: an agent may
// legitimately be executing in degraded mode for LeaseRounds rounds, so
// its placement stays sticky that much longer.
func (c *Central) downThreshold() int { return suspectThreshold + c.cfg.LeaseRounds }

// noteMiss charges one missed report against an agent. When the agent
// crosses the down threshold its lease has expired from the central's
// point of view: the agent (if alive) parks at its next plan, and its
// jobs become placeable elsewhere.
func (c *Central) noteMiss(ai int) {
	c.setMissed(ai, c.agents[ai].missed+1)
	c.timeouts++
	if c.agents[ai].missed == c.downThreshold() {
		c.emit(trace.Record{Kind: trace.KindLeaseExpire, Name: c.agents[ai].name})
	}
}

// downServers returns servers whose agents are currently suspected
// dead (failure detection by missed round reports). The set is the
// central's own, cleared and refilled per call; with no agent missing
// a report it comes back empty without a look at the inventory.
//
//gflint:noretain
func (c *Central) downServers() *gpu.ServerSet {
	c.down.Clear()
	if c.nMissed > 0 {
		thr := c.downThreshold()
		for ai := range c.agents {
			if c.agents[ai].missed >= thr {
				c.down.Add(gpu.ServerID(ai))
			}
		}
	}
	return &c.down
}

// degradedAgents counts agents unheard-from but still covered by their
// lease.
func (c *Central) degradedAgents() int {
	deg := 0
	if c.nMissed > 0 {
		thr := c.downThreshold()
		for ai := range c.agents {
			if m := c.agents[ai].missed; m > 0 && m < thr {
				deg++
			}
		}
	}
	return deg
}

// shardOf finds job id among the shards of agent ai's plan this round,
// nil when the plan did not carry it. An agent hosts at most one shard
// per local GPU, so it is a short scan.
func (c *Central) shardOf(ai int, id int64) *shard {
	shards := c.agents[ai].shards
	for k := range shards {
		if sh := &shards[k]; int64(c.quanta[sh.rec].Job.ID) == id {
			return sh
		}
	}
	return nil
}

// mergeShards closes the round's answers. A gang trains only if every
// server it spans does, so a quantum is answered when all its shards
// reported (each computed the whole gang's progress from the same plan
// fields; the collect loop kept the first server's copy).
func (c *Central) mergeShards(round int) {
	qs := c.quanta
	for i := range qs {
		// A late report reconciled since dispatch may have finished the
		// job: its round still ran on the agents but there is nothing
		// left to charge.
		qs[i].Answered = !qs[i].Job.Finished()
	}
	for ai := range c.agents {
		for _, sh := range c.agents[ai].shards {
			if !sh.got {
				qs[sh.rec].Answered = false
			}
		}
	}
	for i := range qs {
		if q := &qs[i]; q.Answered {
			// Or advanced it past the reported checkpoint (the plan was
			// built from a stale base). The round still ran and is still
			// charged; progress just never moves backwards.
			q.DoneMB = max(q.DoneMB, q.Job.DoneMB())
		}
	}
	// The window keeps which of the round's grants the engine settles
	// (see answeredSince): a slot's entries are its agent's shards, in
	// plan order.
	for ai := range c.agents {
		a := &c.agents[ai]
		if len(a.shards) == 0 {
			continue
		}
		planned := a.at(round).planned
		for k, sh := range a.shards {
			planned[k].q.Answered = qs[sh.rec].Answered
		}
	}
}

// remoteExecutor is the Central as the engine's executor: dispatch the
// round's quanta to the agents as plans, collect their reports,
// reconcile what arrived late, and hand back the answers. It touches no
// books: the engine settles every answer.
type remoteExecutor Central

// Execute implements core.Executor.
func (r *remoteExecutor) Execute(round int, qs []core.Quantum) error {
	c := (*Central)(r)
	o := c.cfg.Obs
	c.quanta = qs
	defer func() { c.quanta = nil }()

	o.PhaseStart(obs.PhaseDispatch)
	c.plans(round, qs)
	if err := c.dispatch(); err != nil {
		return err
	}
	o.PhaseEnd(obs.PhaseDispatch)

	o.PhaseStart(obs.PhaseCollect)
	//gflint:ignore wallclock straggler-cutoff deadline on a real transport, not simulated time
	if !c.receive(round, time.After(c.cfg.ReportTimeout), func() bool { return c.nWant == 0 }) {
		return fmt.Errorf("distrib: transport closed mid-round")
	}
	if c.nWant > 0 {
		// Straggler cutoff: the round proceeds without the late agents.
		// Their jobs are charged as misses now; their reports reconcile
		// idempotently when they arrive inside the lease.
		for ai := range c.agents { // agent order is name order
			if c.agents[ai].want {
				c.note("report_timeout")
				c.noteMiss(ai)
			}
		}
		c.nWant = 0
		if c.timeouts > c.cfg.MaxAgentTimeouts {
			return fmt.Errorf("distrib: %d missed agent reports, giving up", c.timeouts)
		}
	}
	o.PhaseEnd(obs.PhaseCollect)

	// Backlog that rode in with this round's reports reconciles before
	// the answers go back: an agent whose round-r report was delayed
	// sends rounds r and r+1 together, and r must be settled first so
	// r+1's answer sees monotone progress and both rounds count exactly
	// once.
	o.PhaseStart(obs.PhaseApply)
	c.reconcileLate(round)
	c.mergeShards(round)
	o.PhaseEnd(obs.PhaseApply)
	return nil
}

// plans builds every agent's message for round into its record and
// sends nothing. Each quantum is split into one shard per server it
// touches: device IDs are dense per server and Devs ascending, so a
// server's devices are one run. An agent hosting shards gets a work
// plan, its jobs in ID order, and its window slot for round is opened
// with what it was asked to run, so a report arriving after the collect
// deadline can still be verified and charged (see reconcileLate). The
// payloads are handed to the transport, so they are fresh every round:
// two arrays, carved per plan and per shard. Every shard of a gang is
// sent the whole gang's rate and checkpoint, and the time the engine
// granted: Overhead is the quantum less Avail, so resume or migration
// cost, span penalty and degradation all reach the agent as seconds
// without progress. Work plans carry the round's trace context (zero
// when tracing is off) so agent spans join the round's trace.
//
// An unheard-from agent with no shard gets a probe instead: an empty
// plan that paces a cut-off agent's protocol (ack, lease bookkeeping)
// and gives a healed report path something to answer, so recovery does
// not depend on the agent still hosting work — a down server hosts
// none. A probe opens no window slot.
func (c *Central) plans(round int, qs []core.Quantum) {
	cluster := c.ecfg.Cluster
	ctr := c.cfg.Obs.Tracer()
	for ai := range c.agents {
		c.agents[ai].shards = c.agents[ai].shards[:0]
	}
	nShards, nDevs := 0, 0
	for i := range qs {
		devs := qs[i].Devs
		for lo := 0; lo < len(devs); {
			sid := cluster.Device(devs[lo]).Server
			hi := lo + 1
			for hi < len(devs) && cluster.Device(devs[hi]).Server == sid {
				hi++
			}
			a := &c.agents[sid]
			a.shards = append(a.shards, shard{
				rec: int32(i), lo: int32(lo), hi: int32(hi),
				frac: float64(hi-lo) / float64(len(devs)),
			})
			nShards++
			lo = hi
		}
		nDevs += len(devs)
	}
	assignBuf := make([]comm.JobAssignment, nShards)
	localBuf := make([]int, nDevs)
	for ai := range c.agents {
		a := &c.agents[ai]
		a.plan = comm.RoundPlan{
			Round: round, Quantum: c.cfg.Quantum,
			Epoch: c.epoch, Lease: c.cfg.LeaseRounds, AckRound: a.acked,
		}
		a.probe = len(a.shards) == 0 && a.missed > 0
		if len(a.shards) == 0 {
			continue
		}
		a.plan.Trace, a.plan.Span = ctr.Trace(), uint64(ctr.Root())
		a.plan.Jobs = assignBuf[:len(a.shards):len(a.shards)]
		assignBuf = assignBuf[len(a.shards):]
		first := cluster.Server(gpu.ServerID(ai)).Devices[0]
		s := a.open(round)
		for k, sh := range a.shards {
			q := &qs[sh.rec]
			j := q.Job
			devs := q.Devs[sh.lo:sh.hi]
			locals := localBuf[:len(devs):len(devs)]
			localBuf = localBuf[len(devs):]
			for i, d := range devs {
				locals[i] = int(d - first)
			}
			s.planned = append(s.planned, plannedEntry{q: *q, frac: sh.frac})
			a.plan.Jobs[k] = comm.JobAssignment{
				JobID: int64(j.ID), User: string(j.User), Model: j.Perf.Model,
				Gang: len(devs), LocalGPUs: locals, Shard: sh.frac,
				DoneMB: j.DoneMB(), TotalMB: j.TotalMB,
				GangRate: j.GangRate(q.Gen),
				Overhead: c.cfg.Quantum - q.Avail,
			}
		}
	}
}

// dispatch is the coordinator's one send pass over the table plans
// built: the work plans in agent order, then the timeout budget, then
// the probes in agent order, so one seed puts the same envelopes on the
// wire in the same order every run (and drops and retries reproduce).
// A plan that cannot be delivered even after retries means the agent is
// unreachable right now: rather than aborting the run (or stalling the
// round on a timeout the agent can never answer), it is charged as a
// missed report immediately and the round proceeds without it. Probes
// are best-effort: no reply expected, failures charge nothing.
func (c *Central) dispatch() error {
	c.nWant = 0
	for ai := range c.agents {
		a := &c.agents[ai]
		a.want = false
		if len(a.shards) == 0 {
			continue
		}
		if err := c.retry.Send(c.tr, a.name, comm.Envelope{From: c.tr.Name(), Msg: a.plan}); err != nil {
			c.note("plan_send_failed")
			c.noteMiss(ai)
			continue
		}
		c.note("plan_sent")
		a.want = true
		c.nWant++
	}
	if c.timeouts > c.cfg.MaxAgentTimeouts {
		return fmt.Errorf("distrib: %d missed agent reports, giving up", c.timeouts)
	}
	for ai := range c.agents {
		a := &c.agents[ai]
		if !a.probe {
			continue
		}
		if err := c.retry.Send(c.tr, a.name, comm.Envelope{From: c.tr.Name(), Msg: a.plan}); err != nil {
			c.note("probe_send_failed")
			continue
		}
		c.note("probe_sent")
	}
	return nil
}
