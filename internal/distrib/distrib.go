// Package distrib runs Gandiva_fair as the distributed system the
// paper deploys: a central scheduler making round decisions and one
// agent per server executing its slice of the plan, connected by the
// comm transports (in-memory for tests, TCP for real processes).
//
// The central scheduler reuses the exact same policy and placement
// code the simulation core runs — distribution only changes who
// executes a quantum and how the results travel back. Job state
// crosses the wire on every (re)placement (checkpoint semantics), so
// agents are stateless and migration falls out of the protocol.
package distrib

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/migrate"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/placement"
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
// deliveries, fences plans from stale central epochs, and — when
// plans carry a lease — keeps local job state and a backlog of
// unacknowledged reports so a report-path partition degrades service
// instead of losing work (the central reconciles the backlog on
// heal). All of that state is plan-paced: the agent never speculates
// on wall-clock time, so runs stay deterministic.
type Agent struct {
	tr      comm.Transport
	central string
	gen     gpu.Generation
	gpus    int
	obs     *obs.Observer
	retry   *comm.Retrier
	tracer  *span.Tracer // lazily created on the first traced plan

	dedup     *comm.Dedup
	epoch     int // newest central epoch seen (0 until the first fenced plan)
	lastRound int // newest round executed within the current epoch
	// local carries per-job progress while a lease is active, so a
	// degraded agent keeps training past a stale plan's checkpoint
	// instead of redoing work the central never heard about.
	local map[int64]float64
	// backlog holds executed-but-unacknowledged reports, oldest
	// first; it is resent ahead of each new report and pruned by the
	// plans' cumulative AckRound.
	backlog []comm.RoundReport
}

// SetObserver attaches instrumentation (nil is fine and is the
// default: every observer method is nil-safe).
func (a *Agent) SetObserver(o *obs.Observer) { a.obs = o }

// SetRetry replaces the default send retry/backoff policy.
func (a *Agent) SetRetry(pol comm.RetryPolicy) { a.retry = a.newRetrier(pol) }

func (a *Agent) newRetrier(pol comm.RetryPolicy) *comm.Retrier {
	user := pol.OnRetry
	pol.OnRetry = func(n int, err error) {
		a.obs.NoteProtocol("send_retry")
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
	a.retry = a.newRetrier(comm.RetryPolicy{})
	return a, nil
}

// Run registers with the central scheduler and serves round plans
// until shut down. Sends go through the retry/backoff policy, so a
// transient wire failure does not kill the agent. Returns
// ErrTransportClosed when the connection dies before Shutdown, so
// supervisors can distinguish a crash from a clean exit.
func (a *Agent) Run() error {
	err := a.retry.Send(a.tr, a.central, comm.Envelope{From: a.tr.Name(), Msg: comm.Register{
		Agent: a.tr.Name(), Gen: int(a.gen), GPUs: a.gpus,
	}})
	if err != nil {
		return err
	}
	a.obs.NoteProtocol("register_sent")
	for env := range a.tr.Recv() {
		if !comm.Verify(env) {
			a.obs.NoteProtocol("corrupt_detected")
			continue
		}
		if a.dedup.Duplicate(env.From, env.Seq) {
			a.obs.NoteProtocol("dup_dropped")
			continue
		}
		switch m := env.Msg.(type) {
		case comm.RegisterAck:
			if !m.OK {
				return fmt.Errorf("distrib: registration rejected: %s", m.Reason)
			}
		case comm.RoundPlan:
			if m.Epoch > 0 {
				if m.Epoch < a.epoch {
					// A plan from a dead central incarnation: acting on
					// it would split-brain the cluster.
					a.obs.NoteProtocol("fence_reject")
					continue
				}
				if m.Epoch > a.epoch {
					// New central incarnation: everything local belongs
					// to an epoch whose books are closed. The plan's
					// checkpoint is the authoritative restart point.
					a.epoch = m.Epoch
					a.lastRound = 0
					a.local = nil
					a.backlog = nil
				}
				if m.Round <= a.lastRound {
					// Duplicate or reordered plan for a round already
					// executed; running it again would double work.
					a.obs.NoteProtocol("stale_plan_dropped")
					continue
				}
			}
			a.obs.NoteProtocol("plan_received")
			a.pruneAcked(m.AckRound)
			if m.Lease > 0 && len(a.backlog) > 0 && a.backlog[0].Round <= m.Round-m.Lease {
				// Lease expired: the oldest unacknowledged round has
				// aged out of the central's reconciliation window, so
				// that work can never be credited. Park at the plan's
				// checkpoint: drop local state and resync to the
				// central's view.
				a.local = nil
				a.backlog = nil
				a.obs.NoteProtocol("lease_expired")
			}
			rep := a.execute(m)
			a.lastRound = m.Round
			if m.Lease > 0 {
				a.backlog = append(a.backlog, rep)
				if err := a.sendBacklog(); err != nil {
					// The report path is down. The lease covers us:
					// keep executing plans (they may still arrive on an
					// asymmetric partition) and keep buffering; the
					// central reconciles the backlog on heal.
					a.obs.NoteProtocol("report_send_failed")
					continue
				}
				a.obs.NoteProtocol("report_sent")
			} else {
				if err := a.retry.Send(a.tr, a.central, comm.Envelope{From: a.tr.Name(), Msg: rep}); err != nil {
					return err
				}
				a.obs.NoteProtocol("report_sent")
			}
		case comm.Shutdown:
			return nil
		}
	}
	return ErrTransportClosed
}

// pruneAcked drops backlog entries the central has applied (AckRound
// is a cumulative ack).
func (a *Agent) pruneAcked(ackRound int) {
	for len(a.backlog) > 0 && a.backlog[0].Round <= ackRound {
		a.backlog = a.backlog[1:]
	}
}

// sendBacklog ships the unacknowledged window oldest-first (the
// current round's report is its newest entry). Replayed entries are
// idempotent at the central: its per-(agent, round) applied set
// drops rounds it already counted.
func (a *Agent) sendBacklog() error {
	for _, r := range a.backlog {
		if err := a.retry.Send(a.tr, a.central, comm.Envelope{From: a.tr.Name(), Msg: r}); err != nil {
			return err
		}
	}
	return nil
}

// execute runs one quantum's worth of training for the assigned jobs.
// The agent is stateless apart from tracing: everything it needs to
// compute arrives in the plan; when the plan carries a trace context,
// the agent's spans parent under the central round root and ride back
// on the report.
func (a *Agent) execute(plan comm.RoundPlan) comm.RoundReport {
	rep := comm.RoundReport{Agent: a.tr.Name(), Round: plan.Round, Epoch: plan.Epoch,
		Jobs: make([]comm.JobProgress, 0, len(plan.Jobs))}
	var execSpan span.ID
	traced := plan.Trace != 0
	if traced {
		if a.tracer == nil {
			a.tracer = span.New(a.tr.Name(), span.DefaultCap)
		}
		a.tracer.BeginRemote(plan.Trace, plan.Round, 0, "agent-round", span.ID(plan.Span))
		execSpan = a.tracer.Start(string(obs.PhaseExecute))
	}
	for _, as := range plan.Jobs {
		useful := plan.Quantum - as.Overhead
		if useful < 0 {
			useful = 0
		}
		done := as.DoneMB
		// Whole jobs (never cross-server shards) under a lease trust
		// local progress over the plan's checkpoint: a plan built
		// while our reports were cut off carries a stale base, and
		// redoing that work would both waste the quantum and
		// double-charge usage once the backlog reconciles.
		wholeJob := as.Shard == 0 || as.Shard >= 1
		if plan.Lease > 0 && wholeJob {
			if ld, ok := a.local[as.JobID]; ok && ld > done {
				done = ld
			}
		}
		used := useful
		finished := false
		if as.GangRate > 0 {
			need := (as.TotalMB - done) / as.GangRate
			if need <= useful {
				used = need
				finished = true
				done = as.TotalMB
			} else {
				done += as.GangRate * useful
			}
		} else {
			used = 0
		}
		if plan.Lease > 0 && wholeJob {
			if a.local == nil {
				a.local = make(map[int64]float64)
			}
			a.local[as.JobID] = done
		}
		rep.Jobs = append(rep.Jobs, comm.JobProgress{
			JobID: as.JobID, DoneMB: done, Finished: finished, UsedSecs: used,
		})
	}
	if plan.Lease > 0 && len(a.backlog) == 0 && len(a.local) > 0 {
		// Nothing awaits reconciliation, so local state for jobs no
		// longer assigned here is stale (they migrated or finished;
		// their truth lives centrally). Keeping it could skip work if
		// a job ever returns after the central discarded progress.
		inPlan := make(map[int64]bool, len(plan.Jobs))
		for _, as := range plan.Jobs {
			inPlan[as.JobID] = true
		}
		ids := make([]int64, 0, len(a.local))
		for id := range a.local {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, k int) bool { return ids[i] < ids[k] })
		for _, id := range ids {
			if !inPlan[id] {
				delete(a.local, id)
			}
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

	// ReportTimeout bounds the wait for agent reports each round
	// (default 5 s of wall time).
	ReportTimeout time.Duration

	// CollectDeadline, when positive, overrides ReportTimeout as the
	// straggler cutoff: the collect phase proceeds without agents
	// that have not reported by then, charges their jobs as misses,
	// and (with LeaseRounds > 0) reconciles their late reports
	// idempotently in a following round.
	CollectDeadline time.Duration

	// LeaseRounds enables lease-based degraded mode: every plan
	// grants the agent a lease of this many rounds. An agent cut off
	// from the central keeps executing its latest plans on local
	// state and buffers unacknowledged reports until the lease
	// expires, then parks at the plan checkpoint; the central keeps
	// the agent's placement sticky for suspectThreshold+LeaseRounds
	// missed rounds and reconciles the buffered reports when the
	// partition heals, so fairness books balance. It also bounds the
	// late-report reconciliation window. Zero disables degraded mode
	// and reconciliation — exactly the legacy protocol.
	LeaseRounds int

	// StrictReports makes a missing agent report a fatal error. By
	// default the round proceeds without the silent agent's progress:
	// its jobs simply make no progress this quantum and are replaced
	// elsewhere next round (their state lives in the central
	// scheduler's records, so nothing is lost).
	StrictReports bool

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

	// Trace, when non-nil, records protocol lifecycle events
	// (lease-expiry, partition-heal, fence-reject) at simulated
	// timestamps.
	Trace *trace.Log
}

// Central is the coordinator. It reuses core.FairPolicy (or any
// core.Policy) for decisions and placement for device assignment.
type Central struct {
	cfg    CentralConfig
	tr     comm.Transport
	policy core.Policy
	prof   *profiler.Profiler

	// agents is sorted by name and fixed after WaitForAgents. Every
	// agent contributes one server and gpu.New numbers servers in spec
	// order, so agent i's server is ServerID(i): per-agent state below
	// is a slice by that index, agentIdx resolves a name off the wire
	// (while agents register it holds their arrival positions).
	agents   []agentInfo
	agentIdx map[string]int
	cluster  *gpu.Cluster
	pidx     *placement.Index  // free-capacity index; down agents reach it as deltas
	owners   *placement.Owners // device-owner table behind each round's placement validation
	probeGen gpu.Generation    // first generation present: the "profiled yet?" key

	retry *comm.Retrier

	now      simclock.Time
	rounds   int // scheduling rounds executed (idle quanta excluded)
	timeouts int
	missed   []int // by agent index: consecutive missed reports (write through setMissed)
	nMissed  int   // agents with missed > 0; zero lets a round skip all failure bookkeeping
	pending  []job.Spec
	active   map[job.ID]*job.Job
	jobs     []*job.Job //gflint:noretain active's values in job-ID order: RoundState.Jobs and every ordered walk
	done     []*job.Job
	prev     placement.Assignment
	prevGen  map[job.ID]gpu.Generation

	// Per-round tables, kept and cleared so a zero-fault round
	// allocates only what it hands away (the assignment, the plan
	// payloads, lease-window entries).
	down    map[gpu.ServerID]bool //gflint:noretain this round's suspected-dead servers
	planned []plannedJob          //gflint:noretain this round's placed jobs in job-ID order
	byAgent [][]shard             //gflint:noretain by agent index: the slices of planned its plan carries
	want    []bool                //gflint:noretain by agent index: report still awaited
	execRep core.ExecReport       // Ran is cleared and refilled every round

	usage map[job.UserID]float64

	// Partition-tolerance state. epoch fences central incarnations
	// (fresh = 1, restored = snapshot+1); dedup drops duplicate
	// envelope deliveries; the rest implements idempotent late-report
	// reconciliation: lastApplied is the newest round counted per
	// job, appliedRound the newest round counted per agent (the
	// plans' cumulative AckRound), appliedSet the per-(agent, round)
	// idempotency record, plannedWin the retained window of what each
	// agent was asked to run (what a late report may be charged
	// against), and lateQ the late reports awaiting reconciliation.
	epoch        int
	dedup        *comm.Dedup
	lastApplied  map[job.ID]int
	appliedRound map[string]int
	appliedSet   map[string]map[int]bool
	plannedWin   map[int]map[string]map[job.ID]plannedEntry
	lateQ        []comm.RoundReport
}

// plannedEntry is what the central recorded about one job's
// assignment to one agent in one round, retained for LeaseRounds
// rounds so a late report can be verified and charged exactly as the
// on-time report would have been.
type plannedEntry struct {
	gen  gpu.Generation
	gang int
	frac float64
}

// plannedJob is one placed job's record for the round, built right
// after placement in job-ID order. Everything a round needs to know
// about a running job — where, at what cost, what its agents reported —
// is a field here, reached by position, not a map entry keyed by ID.
type plannedJob struct {
	j        *job.Job
	devs     []gpu.DeviceID
	gen      gpu.Generation
	migrated bool
	overhead simclock.Duration // resume or migration cost shipped in the plan
	baseDone float64           // j.DoneMB() when the plan was built
	// prog is the shards' reported progress merged (mergeShards);
	// reported says at least one shard's report arrived.
	prog     comm.JobProgress
	reported bool
	// gone marks a job a late report retired between planning and
	// apply: its round still ran on the agents but there is no record
	// left to charge.
	gone bool
}

// shard is the part of one planned job that runs on one agent:
// devs[lo:hi] of the record, all on that agent's server.
type shard struct {
	rec    int32 // index into Central.planned
	lo, hi int32
	// frac is the shard's share of the gang. It weights the shard's
	// reported useful seconds when merging (every shard spans the same
	// wall quantum, so an unweighted sum would multiply a gang's useful
	// time by its server count).
	frac float64
	// prog is what the agent reported for the shard, kept as received
	// until every report is in (got says one arrived).
	prog comm.JobProgress
	got  bool
}

type agentInfo struct {
	name string
	gen  gpu.Generation
	gpus int
}

// NewCentral builds the coordinator. Call WaitForAgents before Run.
func NewCentral(tr comm.Transport, policy core.Policy, cfg CentralConfig) (*Central, error) {
	if tr == nil || policy == nil {
		return nil, fmt.Errorf("distrib: nil transport or policy")
	}
	if len(cfg.Specs) == 0 {
		return nil, fmt.Errorf("distrib: no jobs")
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = 360
	}
	if (cfg.Costs == migrate.CostModel{}) {
		cfg.Costs = migrate.Default()
	}
	if cfg.ReportTimeout == 0 {
		cfg.ReportTimeout = 5 * time.Second
	}
	if cfg.MaxAgentTimeouts == 0 {
		cfg.MaxAgentTimeouts = 50
	}
	if cfg.Tickets == nil {
		cfg.Tickets = map[job.UserID]float64{}
	}
	prof, err := profiler.New(0.25, 0, 1) // noiseless: agents report true rates
	if err != nil {
		return nil, err
	}
	c := &Central{
		cfg:      cfg,
		tr:       tr,
		policy:   policy,
		prof:     prof,
		agentIdx: make(map[string]int),
		active:   make(map[job.ID]*job.Job),
		prev:     placement.Assignment{},
		prevGen:  make(map[job.ID]gpu.Generation),
		usage:    make(map[job.UserID]float64),
		epoch:    1,
	}
	c.initProtocol()
	c.retry = c.newRetrier()
	c.pending = make([]job.Spec, len(cfg.Specs))
	copy(c.pending, cfg.Specs)
	sort.SliceStable(c.pending, func(i, j int) bool { return c.pending[i].Arrival < c.pending[j].Arrival })
	for i := range c.pending {
		if err := c.pending[i].Validate(); err != nil {
			return nil, err
		}
		if _, ok := cfg.Tickets[c.pending[i].User]; !ok {
			cfg.Tickets[c.pending[i].User] = 1
		}
	}
	return c, nil
}

// initProtocol builds the partition-tolerance state for a fresh or
// restored central. Call after c.epoch is set.
func (c *Central) initProtocol() {
	c.dedup = comm.NewDedup()
	c.lastApplied = make(map[job.ID]int)
	c.appliedRound = make(map[string]int)
	c.appliedSet = make(map[string]map[int]bool)
	c.plannedWin = make(map[int]map[string]map[job.ID]plannedEntry)
	c.cfg.Obs.SetEpoch(c.epoch)
}

// collectDeadline is the straggler cutoff for the collect phase.
func (c *Central) collectDeadline() time.Duration {
	if c.cfg.CollectDeadline > 0 {
		return c.cfg.CollectDeadline
	}
	return c.cfg.ReportTimeout
}

// newRetrier builds the central's send retrier, instrumenting every
// retry through the observer. The sequence space is epoch-salted so a
// restarted central's envelopes are never mistaken for replays of its
// predecessor's (or vice versa) by agents that kept dedup history.
func (c *Central) newRetrier() *comm.Retrier {
	pol := c.cfg.Retry
	pol.SeqBase = uint64(c.epoch) << 32
	user := pol.OnRetry
	pol.OnRetry = func(n int, err error) {
		c.cfg.Obs.NoteProtocol("send_retry")
		if user != nil {
			user(n, err)
		}
	}
	return comm.NewRetrier(pol)
}

// accept runs the protocol's receive-side defenses on one envelope:
// checksum verification (corruption is detected and counted, never
// applied) and duplicate-delivery suppression. Register messages are
// exempt from dedup — a legitimately restarted agent restarts its
// sequence space, so an accepted Register instead resets its peer's
// history (registration itself is idempotent upstream).
func (c *Central) accept(env comm.Envelope) bool {
	if !comm.Verify(env) {
		c.cfg.Obs.NoteProtocol("corrupt_detected")
		return false
	}
	if _, isReg := env.Msg.(comm.Register); isReg {
		c.dedup.Reset(env.From)
		return true
	}
	if c.dedup.Duplicate(env.From, env.Seq) {
		c.cfg.Obs.NoteProtocol("dup_dropped")
		return false
	}
	return true
}

// fenced reports whether a round report belongs to a dead epoch.
// Unfenced (epoch-0) reports from legacy peers pass.
func (c *Central) fenced(rep comm.RoundReport) bool {
	if rep.Epoch == 0 || rep.Epoch == c.epoch {
		return false
	}
	c.cfg.Obs.NoteProtocol("fence_reject")
	if c.cfg.Trace != nil {
		c.cfg.Trace.Add(c.now, trace.KindFenceReject, 0, "",
			fmt.Sprintf("report round %d epoch %d from %s (epoch now %d)", rep.Round, rep.Epoch, rep.Agent, c.epoch))
	}
	return true
}

// setMissed writes agent ai's consecutive-miss counter, keeping
// nMissed in step.
func (c *Central) setMissed(ai, n int) {
	switch was := c.missed[ai]; {
	case was == 0 && n > 0:
		c.nMissed++
	case was > 0 && n == 0:
		c.nMissed--
	}
	c.missed[ai] = n
}

// noteAlive records proof of life from agent ai: its miss counter
// resets, and if it had been cut off long enough to be suspected the
// recovery is a partition heal.
func (c *Central) noteAlive(ai int) {
	if c.missed[ai] >= suspectThreshold {
		c.cfg.Obs.NoteProtocol("partition_heal")
		if c.cfg.Trace != nil {
			c.cfg.Trace.Add(c.now, trace.KindPartitionHeal, 0, "", c.agents[ai].name)
		}
	}
	c.setMissed(ai, 0)
}

// WaitForAgents blocks until n distinct agents registered (or
// timeout), builds the cluster inventory from their announcements,
// and acks each. A retried registration for an already-known name is
// idempotent when the inventory matches and rejected when it does
// not, so duplicate Register messages cannot corrupt the inventory.
func (c *Central) WaitForAgents(n int, timeout time.Duration) error {
	//gflint:ignore wallclock registration deadline on a real transport, not simulated time
	deadline := time.After(timeout)
	for len(c.agents) < n {
		select {
		case env, ok := <-c.tr.Recv():
			if !ok {
				return fmt.Errorf("distrib: transport closed during registration")
			}
			if !c.accept(env) {
				continue
			}
			reg, isReg := env.Msg.(comm.Register)
			if !isReg {
				continue
			}
			g := gpu.Generation(reg.Gen)
			if !g.Valid() || reg.GPUs <= 0 {
				c.ackRegister(reg.Agent, false, "invalid inventory")
				continue
			}
			if i, known := c.agentIdx[reg.Agent]; known {
				if c.agents[i].gen == g && c.agents[i].gpus == reg.GPUs {
					// Retried registration: already recorded, one ack
					// below covers it.
					c.cfg.Obs.NoteProtocol("register_duplicate")
				} else {
					c.ackRegister(reg.Agent, false, fmt.Sprintf(
						"agent %q already registered with %d× %v", reg.Agent, c.agents[i].gpus, c.agents[i].gen))
				}
				continue
			}
			c.agentIdx[reg.Agent] = len(c.agents)
			c.agents = append(c.agents, agentInfo{name: reg.Agent, gen: g, gpus: reg.GPUs})
			c.cfg.Obs.NoteProtocol("register_received")
		case <-deadline:
			return fmt.Errorf("distrib: only %d of %d agents registered", len(c.agents), n)
		}
	}
	if err := c.buildCluster(); err != nil {
		return err
	}
	// Reject jobs that can never be placed on the registered
	// inventory (a gang needs one generation with enough GPUs).
	gens := c.cluster.GensPresent()
	for i := range c.pending {
		sp := &c.pending[i]
		placeable := false
		for _, g := range gens {
			if sp.Perf.FitsOn(g) && sp.Gang <= c.cluster.Capacity(g) {
				placeable = true
				break
			}
		}
		if !placeable {
			return fmt.Errorf("distrib: job %d (gang %d, %s) fits no registered generation",
				sp.ID, sp.Gang, sp.Perf.Model)
		}
	}
	for _, a := range c.agents {
		if err := c.retry.Send(c.tr, a.name, comm.Envelope{From: c.tr.Name(), Msg: comm.RegisterAck{OK: true}}); err != nil {
			return err
		}
	}
	return nil
}

// buildCluster derives deterministic server IDs from the registered
// agents — sort by name, one server each, so agent i's server is
// ServerID(i) — and sizes everything indexed by agent or device.
func (c *Central) buildCluster() error {
	sort.Slice(c.agents, func(i, j int) bool { return c.agents[i].name < c.agents[j].name })
	specs := make([]gpu.Spec, len(c.agents))
	for i, a := range c.agents {
		specs[i] = gpu.Spec{Gen: a.gen, Servers: 1, GPUsPerSrv: a.gpus}
		c.agentIdx[a.name] = i
	}
	cluster, err := gpu.New(specs...)
	if err != nil {
		return err
	}
	c.cluster = cluster
	c.pidx = placement.NewIndex(cluster)
	c.owners = placement.NewOwners(cluster)
	c.probeGen = cluster.GensPresent()[0]
	c.missed = make([]int, len(c.agents))
	c.down = make(map[gpu.ServerID]bool)
	c.byAgent = make([][]shard, len(c.agents))
	c.want = make([]bool, len(c.agents))
	c.execRep.Ran = make(map[job.ID]core.RanInfo)
	return nil
}

// ackRegister answers a Register best-effort (the agent re-registers
// if the ack is lost, so a failed ack send is not fatal).
func (c *Central) ackRegister(agent string, ok bool, reason string) {
	_ = c.retry.Send(c.tr, agent, comm.Envelope{From: c.tr.Name(),
		Msg: comm.RegisterAck{OK: ok, Reason: reason}})
}

// handleRejoin reconciles a mid-run re-registration against the
// fixed inventory: a known agent announcing its original inventory
// is welcomed back (its server is marked up and its failure counter
// reset); anything else is rejected with a reason. Returns whether
// the rejoin was accepted.
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
		c.ackRegister(reg.Agent, true, "")
		c.cfg.Obs.NoteProtocol("rejoin_accepted")
		return true
	}
	c.cfg.Obs.NoteProtocol("rejoin_rejected")
	return false
}

// drainControl processes queued control messages (rejoin
// registrations) without blocking. Round reports found here arrived
// after their round's collect phase closed — straggler or
// partition-buffered traffic — and are queued for idempotent
// reconciliation instead of dropped, so a healed agent's degraded-mode
// work is credited.
func (c *Central) drainControl() {
	for {
		select {
		case env, ok := <-c.tr.Recv():
			if !ok {
				return
			}
			if !c.accept(env) {
				continue
			}
			switch m := env.Msg.(type) {
			case comm.Register:
				c.handleRejoin(m)
			case comm.RoundReport:
				if !c.fenced(m) {
					c.lateQ = append(c.lateQ, m)
				}
			}
		default:
			return
		}
	}
}

// reconcileLate replays queued late reports against the retained
// planning window before round `round` plans. Each (agent, round)
// report is applied at most once, only for whole-job assignments the
// central actually planned on that agent, and only when it advances
// the job — so duplicated, reordered, and replayed backlog deliveries
// are all safe. Any late report is proof of life and heals the
// agent's failure detector even when its usage was already charged.
// With LeaseRounds disabled the queue is drained without applying:
// the legacy protocol has no reconciliation window.
func (c *Central) reconcileLate(round int) {
	if len(c.lateQ) == 0 {
		return
	}
	reps := c.lateQ
	c.lateQ = nil
	// Oldest round first so multi-round backlogs replay in execution
	// order; ties by agent for determinism.
	sort.SliceStable(reps, func(i, k int) bool {
		if reps[i].Round != reps[k].Round {
			return reps[i].Round < reps[k].Round
		}
		return reps[i].Agent < reps[k].Agent
	})
	for _, rep := range reps {
		if ai, known := c.agentIdx[rep.Agent]; known {
			c.noteAlive(ai)
		}
		if c.cfg.LeaseRounds <= 0 {
			continue
		}
		if rep.Round >= round || rep.Round <= round-1-c.cfg.LeaseRounds {
			continue // outside the reconciliation window
		}
		if c.appliedSet[rep.Agent][rep.Round] {
			// Backlog replay of a round already counted: the
			// idempotency record absorbs it.
			c.cfg.Obs.NoteProtocol("late_report_dropped")
			continue
		}
		planned := c.plannedWin[rep.Round][rep.Agent]
		if planned == nil {
			continue // never asked this agent to run that round
		}
		applied := false
		for _, p := range rep.Jobs {
			id := job.ID(p.JobID)
			pe, ok := planned[id]
			if !ok || pe.frac < 1 {
				// Not planned here, or a cross-server shard: a shard's
				// progress only means something merged with its
				// siblings in the same round, which is gone.
				continue
			}
			j := c.active[id]
			if j == nil || j.Finished() {
				continue
			}
			if c.lastApplied[id] >= rep.Round {
				continue // a newer round already counted this job
			}
			if p.DoneMB < j.DoneMB()-1e-6 {
				continue // stale progress; applying would move the job backwards
			}
			// Charge exactly as the on-time report would have been:
			// the round's end time is in the past relative to c.now,
			// but usage and progress are time-independent.
			j.ApplyReport(p.DoneMB, pe.gen, float64(pe.gang)*p.UsedSecs, p.Finished, c.now)
			c.usage[j.User] += float64(pe.gang) * c.cfg.Quantum
			c.lastApplied[id] = rep.Round
			if j.Finished() {
				c.finishJob(id, j)
			}
			applied = true
		}
		if c.appliedSet[rep.Agent] == nil {
			c.appliedSet[rep.Agent] = make(map[int]bool)
		}
		c.appliedSet[rep.Agent][rep.Round] = true
		if rep.Round > c.appliedRound[rep.Agent] {
			c.appliedRound[rep.Agent] = rep.Round
		}
		if applied {
			c.cfg.Obs.NoteProtocol("late_report_applied")
		} else {
			c.cfg.Obs.NoteProtocol("late_report_dropped")
		}
	}
}

// finishJob retires a job a late report finished, between rounds'
// sweeps: retire, plus the sorted list entry the sweep would compact.
func (c *Central) finishJob(id job.ID, j *job.Job) {
	c.retire(id, j)
	if i, ok := slices.BinarySearchFunc(c.jobs, id, func(j *job.Job, id job.ID) int { return cmp.Compare(j.ID, id) }); ok {
		c.jobs = slices.Delete(c.jobs, i, i+1)
	}
}

// byJobID orders Central.jobs.
func byJobID(a, b *job.Job) int { return cmp.Compare(a.ID, b.ID) }

// retire removes a finished job from every scheduler structure but
// c.jobs, which the caller compacts.
func (c *Central) retire(id job.ID, j *job.Job) {
	c.done = append(c.done, j)
	c.policy.JobFinished(id)
	c.prof.Remove(id)
	delete(c.active, id)
	delete(c.prevGen, id)
	delete(c.prev, id)
	delete(c.lastApplied, id)
	c.cfg.Obs.NoteFinish()
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

// Run executes up to maxRounds scheduling quanta (stopping early when
// all jobs finish) and shuts the agents down.
func (c *Central) Run(maxRounds int) (*Summary, error) {
	sum, err := c.Steps(maxRounds)
	if err != nil {
		return nil, err
	}
	c.ShutdownAgents()
	return sum, nil
}

// Steps advances the schedule by up to maxSteps quanta without
// shutting the agents down, so a supervisor (the chaos harness, an
// operator console) can interleave scheduling with control actions.
// It stops early when every job has finished. The returned summary
// reflects progress so far.
func (c *Central) Steps(maxSteps int) (*Summary, error) {
	if c.cluster == nil {
		return nil, fmt.Errorf("distrib: WaitForAgents first")
	}
	for step := 0; step < maxSteps; step++ {
		if err := c.admit(); err != nil {
			return nil, err
		}
		if len(c.active) == 0 {
			if len(c.pending) == 0 {
				break
			}
			c.now = c.now.Add(c.cfg.Quantum)
			continue
		}
		if err := c.runRound(c.rounds + 1); err != nil {
			return nil, err
		}
		c.rounds++
		c.now = c.now.Add(c.cfg.Quantum)
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
	sort.Slice(c.done, func(i, j int) bool { return c.done[i].FinishTime() < c.done[j].FinishTime() })
	return &Summary{
		Rounds:         c.rounds,
		Finished:       c.done,
		Unfinished:     len(c.active) + len(c.pending),
		UsageByUser:    c.usage,
		VirtualSeconds: simclock.Duration(c.now),
		MissedReports:  c.timeouts,
	}
}

// admit moves arrived specs into the active set. Specs are validated
// at construction, so a job that fails to build here is a hard error
// — silently dropping it would lose the job without trace.
func (c *Central) admit() error {
	n := 0
	for len(c.pending) > 0 && c.pending[0].Arrival <= c.now {
		j, err := job.New(c.pending[0])
		if err != nil {
			return fmt.Errorf("distrib: admitting job %d: %w", c.pending[0].ID, err)
		}
		c.active[j.ID] = j
		c.jobs = append(c.jobs, j)
		n++
		c.pending = c.pending[1:]
	}
	if n > 0 {
		// Arrival order is not ID order; one sort per admitting round.
		slices.SortFunc(c.jobs, byJobID)
	}
	c.cfg.Obs.NoteAdmitted(n)
	return nil
}

// BusyAgents returns the names (sorted) of agents hosting at least
// one job in the most recent round's assignment. The chaos harness
// uses it to aim a kill at a server that actually has work.
func (c *Central) BusyAgents() []string {
	busy := make([]bool, len(c.agents))
	for _, devs := range c.prev {
		for _, d := range devs {
			busy[c.cluster.Device(d).Server] = true
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
// treated as down. Leases extend the base threshold: a leased agent
// may legitimately be executing in degraded mode for LeaseRounds
// rounds, so its placement stays sticky that much longer.
func (c *Central) downThreshold() int { return suspectThreshold + c.cfg.LeaseRounds }

// noteMiss charges one missed report against an agent. When a leased
// agent crosses the down threshold its lease has expired from the
// central's point of view: the agent (if alive) parks at its next
// plan, and its jobs become placeable elsewhere.
func (c *Central) noteMiss(ai int) {
	c.setMissed(ai, c.missed[ai]+1)
	c.timeouts++
	if c.cfg.LeaseRounds > 0 && c.missed[ai] == c.downThreshold() {
		c.cfg.Obs.NoteProtocol("lease_expired")
		if c.cfg.Trace != nil {
			c.cfg.Trace.Add(c.now, trace.KindLeaseExpire, 0, "", c.agents[ai].name)
		}
	}
}

// downServers returns servers whose agents are currently suspected
// dead (failure detection by missed round reports). The set is the
// central's own, cleared and refilled per call; with no agent missing
// a report it comes back empty without a look at the inventory.
//
//gflint:noretain
func (c *Central) downServers() map[gpu.ServerID]bool {
	clear(c.down)
	if c.nMissed == 0 {
		return c.down
	}
	thr := c.downThreshold()
	for ai, m := range c.missed {
		if m >= thr {
			c.down[gpu.ServerID(ai)] = true
		}
	}
	return c.down
}

// shardOf finds job id among the shards of agent ai's plan this round,
// nil when the plan did not carry it. An agent hosts at most one shard
// per local GPU, so it is a short scan.
func (c *Central) shardOf(ai int, id int64) *shard {
	for k := range c.byAgent[ai] {
		if sh := &c.byAgent[ai][k]; int64(c.planned[sh.rec].j.ID) == id {
			return sh
		}
	}
	return nil
}

// mergeShards folds the round's shard reports into their jobs' records.
// It walks agents in index order, so a multi-server gang's shards merge
// in server order whatever order their reports arrived in, and the
// float sums below — and with them the next round's plans — repeat from
// run to run.
func (c *Central) mergeShards() {
	for _, shards := range c.byAgent {
		for k := range shards {
			sh := &shards[k]
			if !sh.got {
				continue
			}
			r := &c.planned[sh.rec]
			p := sh.prog
			// Weight the shard's useful seconds by its share of the
			// gang so the merged value measures gang-time (frac is 1
			// for single-server jobs).
			p.UsedSecs *= sh.frac
			if !r.reported {
				r.prog, r.reported = p, true
				continue
			}
			// Multi-server gang: each shard reports progress at its
			// fraction of the gang rate over the same base, so
			// increments add (and the gang finishes when the summed
			// progress reaches the total).
			r.prog.DoneMB += p.DoneMB - r.baseDone
			if r.prog.DoneMB >= r.j.TotalMB-1e-6 {
				r.prog.DoneMB = r.j.TotalMB
				r.prog.Finished = true
			}
			r.prog.UsedSecs += p.UsedSecs
		}
	}
}

func (c *Central) runRound(round int) error {
	o := c.cfg.Obs
	c.drainControl()
	// Reconcile before planning so plans carry the freshest checkpoint
	// (a healed agent's backlog may have advanced jobs past what the
	// central charged so far).
	c.reconcileLate(round)
	o.BeginRound(round, float64(c.now))
	// Trace context shipped in every plan so agent spans join this
	// round's trace (both zero when tracing is off).
	ctr := o.Tracer()
	ctrace := ctr.Trace()
	croot := uint64(ctr.Root())
	for _, j := range c.jobs {
		if c.prof.Samples(j.ID, c.probeGen) == 0 {
			c.prof.ProbeAll(j)
		}
	}

	down := c.downServers()
	st := &core.RoundState{
		Now: c.now, Quantum: c.cfg.Quantum, Cluster: c.cluster,
		Jobs: c.jobs, Tickets: c.cfg.Tickets, Prof: c.prof, PrevGen: c.prevGen,
		Down: down,
		Obs:  o,
	}
	o.PhaseStart(obs.PhaseDecide)
	dec := c.policy.Decide(st)
	o.PhaseEnd(obs.PhaseDecide)
	for _, t := range dec.Trades {
		o.NoteTrade(string(t.Buyer), string(t.Seller), t.Fast.String(), t.Slow.String(),
			t.FastGPUs, t.SlowGPUs, t.Price)
	}
	o.PhaseStart(obs.PhasePlacement)
	// The index carries availability as baseline state; agents that
	// went down or came back since last round reach it as a delta.
	c.pidx.SyncUnavail(down)
	res := placement.PlaceIndexed(c.pidx, c.prev, dec.Run, placement.Options{AllowMigration: true})
	// The round's records, in job-ID order (c.jobs is sorted; filtering
	// it against the assignment keeps the order). Each job is validated
	// on the way and split into one shard per server it touches: device
	// IDs are dense per server and devs ascending, so a server's
	// devices are one run.
	planned := c.planned[:0]
	for ai := range c.byAgent {
		c.byAgent[ai] = c.byAgent[ai][:0]
	}
	c.owners.Begin()
	nShards, nDevs := 0, 0
	for _, j := range c.jobs {
		devs, ok := res.Assignment[j.ID]
		if !ok {
			continue
		}
		if err := c.owners.ValidateJob(j.ID, devs); err != nil {
			return err
		}
		r := plannedJob{j: j, devs: devs, gen: c.cluster.Device(devs[0]).Gen, baseDone: j.DoneMB()}
		_, r.migrated = slices.BinarySearch(res.Migrated, j.ID)
		switch {
		case r.migrated:
			r.overhead = c.cfg.Costs.MigrationCost(j.Perf)
			j.NoteMigration()
		case !j.RanLastQuantum():
			r.overhead = c.cfg.Costs.ResumeCost()
		}
		for lo := 0; lo < len(devs); {
			sid := c.cluster.Device(devs[lo]).Server
			hi := lo + 1
			for hi < len(devs) && c.cluster.Device(devs[hi]).Server == sid {
				hi++
			}
			c.byAgent[sid] = append(c.byAgent[sid], shard{
				rec: int32(len(planned)), lo: int32(lo), hi: int32(hi),
				frac: float64(hi-lo) / float64(len(devs)),
			})
			nShards++
			lo = hi
		}
		nDevs += len(devs)
		planned = append(planned, r)
	}
	c.planned = planned
	if len(planned) != len(res.Assignment) {
		return fmt.Errorf("distrib: round %d: placement returned %d jobs, %d of them active",
			round, len(res.Assignment), len(planned))
	}
	o.PhaseEnd(obs.PhasePlacement)
	o.NoteUnplaced(len(res.Unplaced))
	if o != nil {
		for i := range planned {
			r := &planned[i]
			ds := make([]int, len(r.devs))
			for i, d := range r.devs {
				ds[i] = int(d)
			}
			fromGen := ""
			if r.migrated {
				if pg, ok := c.prevGen[r.j.ID]; ok {
					fromGen = pg.String()
				}
			}
			o.RecordPlacement(int64(r.j.ID), string(r.j.User), r.gen.String(), r.j.Gang, ds, r.migrated, fromGen)
		}
	}

	// Build and ship per-agent plans, in agent order with each plan's
	// jobs in ID order, so one seed puts the same bytes on the wire
	// every run (and drops/retries reproduce). The payloads are handed
	// to the transport, so they are fresh every round: two arrays,
	// carved per plan and per shard. Multi-server gangs run at the full
	// rate split across agents proportional to local GPUs (the span
	// penalty is folded into overhead here for simplicity).
	//
	// A plan that cannot be delivered even after retries means the
	// agent is unreachable right now: rather than aborting the run (or
	// stalling the round on a timeout the agent can never answer), it
	// is charged as a missed report immediately and the round proceeds
	// without it.
	o.PhaseStart(obs.PhaseDispatch)
	assignBuf := make([]comm.JobAssignment, nShards)
	localBuf := make([]int, nDevs)
	clear(c.want)
	nWant := 0
	for ai, shards := range c.byAgent {
		if len(shards) == 0 {
			continue
		}
		name := c.agents[ai].name
		first := c.cluster.Server(gpu.ServerID(ai)).Devices[0]
		plan := comm.RoundPlan{
			Round: round, Quantum: c.cfg.Quantum, Trace: ctrace, Span: croot,
			Epoch: c.epoch, Lease: c.cfg.LeaseRounds, AckRound: c.appliedRound[name],
			Jobs: assignBuf[:len(shards):len(shards)],
		}
		assignBuf = assignBuf[len(shards):]
		for k, sh := range shards {
			r := &planned[sh.rec]
			devs := r.devs[sh.lo:sh.hi]
			locals := localBuf[:len(devs):len(devs)]
			localBuf = localBuf[len(devs):]
			for i, d := range devs {
				locals[i] = int(d - first)
			}
			if c.cfg.LeaseRounds > 0 {
				// Retain what this agent was asked to run so a report
				// arriving after the collect deadline can still be
				// verified and charged (see reconcileLate).
				if c.plannedWin[round] == nil {
					c.plannedWin[round] = make(map[string]map[job.ID]plannedEntry)
				}
				if c.plannedWin[round][name] == nil {
					c.plannedWin[round][name] = make(map[job.ID]plannedEntry)
				}
				c.plannedWin[round][name][r.j.ID] = plannedEntry{gen: r.gen, gang: r.j.Gang, frac: sh.frac}
			}
			plan.Jobs[k] = comm.JobAssignment{
				JobID: int64(r.j.ID), User: string(r.j.User), Model: r.j.Perf.Model,
				Gang: len(devs), LocalGPUs: locals, Shard: sh.frac,
				DoneMB: r.baseDone, TotalMB: r.j.TotalMB,
				GangRate: r.j.GangRate(r.gen) * sh.frac,
				Overhead: r.overhead,
			}
		}
		if err := c.retry.Send(c.tr, name, comm.Envelope{From: c.tr.Name(), Msg: plan}); err != nil {
			if c.cfg.StrictReports {
				return fmt.Errorf("distrib: round %d: plan for %q undeliverable: %w", round, name, err)
			}
			o.NoteProtocol("plan_send_failed")
			c.noteMiss(ai)
			continue
		}
		o.NoteProtocol("plan_sent")
		c.want[ai] = true
		nWant++
	}
	if c.timeouts > c.cfg.MaxAgentTimeouts {
		return fmt.Errorf("distrib: %d missed agent reports, giving up", c.timeouts)
	}
	if c.cfg.LeaseRounds > 0 {
		// Probe degraded agents that got no assignment: an empty plan
		// paces a cut-off agent's protocol (ack, lease bookkeeping) and
		// gives a healed report path something to answer, so recovery
		// does not depend on the agent still hosting work. Probes are
		// best-effort: no reply expected, failures charge nothing.
		for i, a := range c.agents {
			if c.missed[i] == 0 || len(c.byAgent[i]) > 0 {
				continue
			}
			probe := comm.RoundPlan{
				Round: round, Quantum: c.cfg.Quantum,
				Epoch: c.epoch, Lease: c.cfg.LeaseRounds, AckRound: c.appliedRound[a.name],
			}
			if err := c.retry.Send(c.tr, a.name, comm.Envelope{From: c.tr.Name(), Msg: probe}); err != nil {
				o.NoteProtocol("probe_send_failed")
				continue
			}
			o.NoteProtocol("probe_sent")
		}
		// The reconciliation window slides: plans and applied-round
		// records older than the lease can never be charged again.
		floor := round - 1 - c.cfg.LeaseRounds
		old := make([]int, 0, len(c.plannedWin))
		for r := range c.plannedWin {
			if r <= floor {
				old = append(old, r)
			}
		}
		sort.Ints(old)
		for _, r := range old {
			delete(c.plannedWin, r)
		}
		for _, a := range c.agents {
			rounds := make([]int, 0, len(c.appliedSet[a.name]))
			for r := range c.appliedSet[a.name] {
				if r <= floor {
					rounds = append(rounds, r)
				}
			}
			sort.Ints(rounds)
			for _, r := range rounds {
				delete(c.appliedSet[a.name], r)
			}
		}
	}
	o.PhaseEnd(obs.PhaseDispatch)
	o.PhaseStart(obs.PhaseCollect)
	//gflint:ignore wallclock straggler-cutoff deadline on a real transport, not simulated time
	deadline := time.After(c.collectDeadline())
	for nWant > 0 {
		select {
		case env, ok := <-c.tr.Recv():
			if !ok {
				return fmt.Errorf("distrib: transport closed mid-round")
			}
			if !c.accept(env) {
				continue
			}
			if reg, isReg := env.Msg.(comm.Register); isReg {
				// A crashed agent restarting mid-round; reconcile it
				// now so its server is schedulable next round.
				c.handleRejoin(reg)
				continue
			}
			rep, isRep := env.Msg.(comm.RoundReport)
			if !isRep || c.fenced(rep) {
				continue
			}
			if rep.Round < round {
				// A straggler's earlier round or a healed agent's
				// backlog: queue for idempotent reconciliation.
				c.lateQ = append(c.lateQ, rep)
				continue
			}
			ai, known := c.agentIdx[rep.Agent]
			if !known {
				continue // not in the inventory
			}
			c.noteAlive(ai)
			if rep.Round != round || !c.want[ai] {
				// Same-round traffic outside the want set — a probe
				// answer or a replayed copy of a report already
				// accepted. Proof of life, nothing to apply.
				continue
			}
			c.want[ai] = false
			nWant--
			o.NoteProtocol("report_received")
			if c.cfg.LeaseRounds > 0 {
				// The on-time apply below counts this (agent, round);
				// record that so backlog replays of the same round are
				// never applied again, and the agent's ack advances.
				if c.appliedSet[rep.Agent] == nil {
					c.appliedSet[rep.Agent] = make(map[int]bool)
				}
				c.appliedSet[rep.Agent][round] = true
				if round > c.appliedRound[rep.Agent] {
					c.appliedRound[rep.Agent] = round
				}
			}
			ctr.Inject(rep.Spans)
			for _, p := range rep.Jobs {
				// Progress for a job this agent's plan did not carry
				// has nothing to be charged against and is dropped.
				if sh := c.shardOf(ai, p.JobID); sh != nil {
					sh.prog, sh.got = p, true
				}
			}
		case <-deadline:
			if c.cfg.StrictReports {
				return fmt.Errorf("distrib: round %d: %d agents did not report", round, nWant)
			}
			// Straggler cutoff: the round proceeds without the late
			// agents. Their jobs are charged as misses now; with
			// leases their reports reconcile idempotently when they
			// arrive.
			for ai, waiting := range c.want { // agent order is name order
				if waiting {
					o.NoteProtocol("report_timeout")
					c.noteMiss(ai)
				}
			}
			nWant = 0
			if c.timeouts > c.cfg.MaxAgentTimeouts {
				return fmt.Errorf("distrib: %d missed agent reports, giving up", c.timeouts)
			}
		}
	}

	o.PhaseEnd(obs.PhaseCollect)
	// Backlog that rode in with this round's reports reconciles before
	// apply: an agent whose round-r report was delayed sends rounds
	// r and r+1 together, and r must be charged first so r+1's apply
	// sees monotone progress and both rounds count exactly once.
	c.reconcileLate(round)

	// Apply reports, exactly as the paper's central scheduler updates
	// its view from server heartbeats. Record order is job-ID order,
	// which keeps the per-user usage sums and the profiler's
	// noise-sample consumption identical across runs of one seed.
	o.PhaseStart(obs.PhaseApply)
	c.mergeShards()
	rep := &c.execRep
	clear(rep.Ran)
	for i := range planned {
		r := &planned[i]
		j := r.j
		if j.Finished() {
			r.gone = true // the reconcile just above retired it
			continue
		}
		if !r.reported {
			continue
		}
		p := r.prog
		gang := float64(j.Gang)
		if c.cfg.LeaseRounds > 0 && p.DoneMB < j.DoneMB() {
			// A reconciled late report already advanced this job past
			// the reported checkpoint (the plan was built from a stale
			// base). The round still ran and is still charged; progress
			// just never moves backwards.
			p.DoneMB = j.DoneMB()
		}
		j.ApplyReport(p.DoneMB, r.gen, gang*p.UsedSecs, p.Finished, c.now.Add(c.cfg.Quantum))
		c.usage[j.User] += gang * c.cfg.Quantum
		c.lastApplied[j.ID] = round
		rep.Ran[j.ID] = core.RanInfo{
			User: j.User, Gen: r.gen, Gang: j.Gang,
			OccupiedSecs: c.cfg.Quantum, UsefulSecs: p.UsedSecs,
			Migrated: r.migrated, Finished: p.Finished,
		}
		if !p.Finished {
			c.prof.Observe(j, r.gen)
		}
	}
	rep.Unplaced = res.Unplaced
	c.policy.Executed(rep)

	// This round's assignment, less the jobs that are done, is next
	// round's prev (placement returns a fresh map every call).
	c.prev = res.Assignment
	for i := range planned {
		r := &planned[i]
		switch id := r.j.ID; {
		case r.gone:
			delete(c.prev, id)
		case r.j.Finished():
			c.retire(id, r.j) // drops it from c.prev too
		default:
			c.prevGen[id] = r.gen
		}
	}
	// One walk over the sorted job list compacts the finished jobs out
	// and tells every other job whether it ran (a merge against the
	// records, which are in the same order).
	kept := c.jobs[:0]
	k := 0
	for _, j := range c.jobs {
		if j.Finished() {
			continue
		}
		for k < len(planned) && planned[k].j.ID < j.ID {
			k++
		}
		ran := k < len(planned) && planned[k].j == j && planned[k].reported
		if j.State() == job.Running && !ran {
			j.SetRunning(false)
		}
		if ran && j.State() != job.Running {
			j.SetRunning(true)
		}
		j.NoteQuantum(ran)
		kept = append(kept, j)
	}
	c.jobs = kept
	o.PhaseEnd(obs.PhaseApply)
	c.publishShares()
	o.SetEpoch(c.epoch)
	deg := 0
	if c.cfg.LeaseRounds > 0 && c.nMissed > 0 {
		thr := c.downThreshold()
		for _, m := range c.missed {
			if m > 0 && m < thr {
				deg++
			}
		}
	}
	o.SetDegradedAgents(deg)
	o.EndRound(len(c.active), len(c.pending))
	return nil
}

// publishShares exports per-user usage and fair-share fractions to
// the observer's gauges. No-op when uninstrumented.
func (c *Central) publishShares() {
	if c.cfg.Obs == nil {
		return
	}
	var totalUse, totalTickets float64
	for _, u := range job.SortedUsers(c.usage) {
		totalUse += c.usage[u]
	}
	for _, u := range job.SortedUsers(c.cfg.Tickets) {
		totalTickets += c.cfg.Tickets[u]
	}
	for _, user := range job.SortedUsers(c.cfg.Tickets) {
		useFrac := 0.0
		if totalUse > 0 {
			useFrac = c.usage[user] / totalUse
		}
		fairFrac := 0.0
		if totalTickets > 0 {
			fairFrac = c.cfg.Tickets[user] / totalTickets
		}
		c.cfg.Obs.SetShare(string(user), useFrac, fairFrac)
	}
}
