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
	"errors"
	"fmt"
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
	rep := comm.RoundReport{Agent: a.tr.Name(), Round: plan.Round, Epoch: plan.Epoch}
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

	agents  []agentInfo // sorted by name; fixed after WaitForAgents
	cluster *gpu.Cluster
	owners  *placement.Owners // device-owner table behind each round's placement validation
	// serverOf maps cluster ServerID → agent index.
	serverOf map[gpu.ServerID]int

	retry *comm.Retrier

	now      simclock.Time
	rounds   int // scheduling rounds executed (idle quanta excluded)
	timeouts int
	missed   map[string]int // consecutive missed reports per agent
	pending  []job.Spec
	active   map[job.ID]*job.Job
	done     []*job.Job
	prev     placement.Assignment
	prevGen  map[job.ID]gpu.Generation

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
		serverOf: make(map[gpu.ServerID]int),
		active:   make(map[job.ID]*job.Job),
		missed:   make(map[string]int),
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

// noteAlive records proof of life from an agent: its miss counter
// resets, and if it had been cut off long enough to be suspected the
// recovery is a partition heal.
func (c *Central) noteAlive(agent string) {
	if c.missed[agent] >= suspectThreshold {
		c.cfg.Obs.NoteProtocol("partition_heal")
		if c.cfg.Trace != nil {
			c.cfg.Trace.Add(c.now, trace.KindPartitionHeal, 0, "", agent)
		}
	}
	c.missed[agent] = 0
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
			if i := c.agentIndex(reg.Agent); i >= 0 {
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
	for i := range c.pending {
		sp := &c.pending[i]
		placeable := false
		for _, g := range c.cluster.GensPresent() {
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
// agents: sort by name, one server each.
func (c *Central) buildCluster() error {
	sort.Slice(c.agents, func(i, j int) bool { return c.agents[i].name < c.agents[j].name })
	specs := make([]gpu.Spec, len(c.agents))
	for i, a := range c.agents {
		specs[i] = gpu.Spec{Gen: a.gen, Servers: 1, GPUsPerSrv: a.gpus}
	}
	cluster, err := gpu.New(specs...)
	if err != nil {
		return err
	}
	c.cluster = cluster
	c.owners = placement.NewOwners(cluster)
	for i, srv := range cluster.Servers() {
		c.serverOf[srv.ID] = i
	}
	return nil
}

// agentIndex returns the index of the named agent, or -1.
func (c *Central) agentIndex(name string) int {
	for i, a := range c.agents {
		if a.name == name {
			return i
		}
	}
	return -1
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
	i := c.agentIndex(reg.Agent)
	switch {
	case i < 0:
		c.ackRegister(reg.Agent, false, fmt.Sprintf(
			"unknown agent %q: the inventory is fixed after startup", reg.Agent))
	case c.agents[i].gen != g || c.agents[i].gpus != reg.GPUs:
		c.ackRegister(reg.Agent, false, fmt.Sprintf(
			"inventory mismatch: %q registered %d× %v, rejoined with %d× %v",
			reg.Agent, c.agents[i].gpus, c.agents[i].gen, reg.GPUs, g))
	default:
		c.missed[reg.Agent] = 0
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
		c.noteAlive(rep.Agent)
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

// finishJob retires a finished job from every scheduler structure.
func (c *Central) finishJob(id job.ID, j *job.Job) {
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
		n++
		c.pending = c.pending[1:]
	}
	c.cfg.Obs.NoteAdmitted(n)
	return nil
}

// BusyAgents returns the names (sorted) of agents hosting at least
// one job in the most recent round's assignment. The chaos harness
// uses it to aim a kill at a server that actually has work.
func (c *Central) BusyAgents() []string {
	busy := make(map[int]bool)
	for _, devs := range c.prev {
		for _, d := range devs {
			busy[c.serverOf[c.cluster.Device(d).Server]] = true
		}
	}
	var names []string
	for i, a := range c.agents {
		if busy[i] {
			names = append(names, a.name)
		}
	}
	sort.Strings(names)
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
func (c *Central) noteMiss(name string) {
	c.missed[name]++
	c.timeouts++
	if c.cfg.LeaseRounds > 0 && c.missed[name] == c.downThreshold() {
		c.cfg.Obs.NoteProtocol("lease_expired")
		if c.cfg.Trace != nil {
			c.cfg.Trace.Add(c.now, trace.KindLeaseExpire, 0, "", name)
		}
	}
}

// downServers returns servers whose agents are currently suspected
// dead (failure detection by missed round reports).
func (c *Central) downServers() map[gpu.ServerID]bool {
	down := make(map[gpu.ServerID]bool)
	for i, a := range c.agents {
		if c.missed[a.name] >= c.downThreshold() {
			for sid, ai := range c.serverOf {
				if ai == i {
					down[sid] = true
				}
			}
		}
	}
	return down
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
	jobs := make([]*job.Job, 0, len(c.active))
	for _, j := range c.active {
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].ID < jobs[k].ID })
	for _, j := range jobs {
		if c.prof.Samples(j.ID, c.cluster.GensPresent()[0]) == 0 {
			c.prof.ProbeAll(j)
		}
	}

	down := c.downServers()
	st := &core.RoundState{
		Now: c.now, Quantum: c.cfg.Quantum, Cluster: c.cluster,
		Jobs: jobs, Tickets: c.cfg.Tickets, Prof: c.prof, PrevGen: c.prevGen,
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
	res := placement.Place(c.cluster, c.prev, dec.Run, placement.Options{AllowMigration: true, Down: down})
	if err := c.owners.Validate(res.Assignment); err != nil {
		return err
	}
	o.PhaseEnd(obs.PhasePlacement)
	migrated := make(map[job.ID]bool)
	for _, id := range res.Migrated {
		migrated[id] = true
	}
	o.NoteUnplaced(len(res.Unplaced))
	if o != nil {
		for _, id := range job.SortedIDs(res.Assignment) {
			devs := res.Assignment[id]
			j := c.active[id]
			if j == nil {
				continue
			}
			gen := c.cluster.Device(devs[0]).Gen
			ds := make([]int, len(devs))
			for i, d := range devs {
				ds[i] = int(d)
			}
			fromGen := ""
			if migrated[id] {
				if pg, ok := c.prevGen[id]; ok {
					fromGen = pg.String()
				}
			}
			o.RecordPlacement(int64(id), string(j.User), gen.String(), j.Gang, ds, migrated[id], fromGen)
		}
	}

	// Build per-agent plans.
	o.PhaseStart(obs.PhaseDispatch)
	plans := make(map[int]*comm.RoundPlan)
	genOf := make(map[job.ID]gpu.Generation)
	gangOf := make(map[job.ID]int)
	baseDone := make(map[job.ID]float64)
	// shardFrac[id][agent] is the fraction of the job's gang that
	// runs on that agent's server, used to weight the shard's
	// reported useful seconds when merging (each shard spans the same
	// wall quantum, so summing unweighted would multiply a gang's
	// useful time by its server count).
	shardFrac := make(map[job.ID]map[string]float64)
	for id, devs := range res.Assignment {
		j := c.active[id]
		gen := c.cluster.Device(devs[0]).Gen
		genOf[id] = gen
		gangOf[id] = j.Gang
		baseDone[id] = j.DoneMB()
		var overhead simclock.Duration
		switch {
		case migrated[id]:
			overhead = c.cfg.Costs.MigrationCost(j.Perf)
			j.NoteMigration()
		case !j.RanLastQuantum():
			overhead = c.cfg.Costs.ResumeCost()
		}
		// Group the job's devices by server; each agent gets its local
		// slice. Multi-server gangs run at the full rate split across
		// agents proportional to local GPUs (the span penalty is
		// folded into overhead here for simplicity).
		byServer := make(map[gpu.ServerID][]int)
		for _, d := range devs {
			dev := c.cluster.Device(d)
			srv := c.cluster.Server(dev.Server)
			local := 0
			for li, sd := range srv.Devices {
				if sd == d {
					local = li
				}
			}
			byServer[dev.Server] = append(byServer[dev.Server], local)
		}
		gangRate := j.GangRate(gen)
		for sid, locals := range byServer {
			ai := c.serverOf[sid]
			plan := plans[ai]
			if plan == nil {
				plan = &comm.RoundPlan{Round: round, Quantum: c.cfg.Quantum, Trace: ctrace, Span: croot}
				plans[ai] = plan
			}
			frac := float64(len(locals)) / float64(len(devs))
			if shardFrac[id] == nil {
				shardFrac[id] = make(map[string]float64, 1)
			}
			shardFrac[id][c.agents[ai].name] = frac
			if c.cfg.LeaseRounds > 0 {
				// Retain what this agent was asked to run so a report
				// arriving after the collect deadline can still be
				// verified and charged (see reconcileLate).
				name := c.agents[ai].name
				if c.plannedWin[round] == nil {
					c.plannedWin[round] = make(map[string]map[job.ID]plannedEntry)
				}
				if c.plannedWin[round][name] == nil {
					c.plannedWin[round][name] = make(map[job.ID]plannedEntry)
				}
				c.plannedWin[round][name][id] = plannedEntry{gen: gen, gang: j.Gang, frac: frac}
			}
			plan.Jobs = append(plan.Jobs, comm.JobAssignment{
				JobID: int64(id), User: string(j.User), Model: j.Perf.Model,
				Gang: len(locals), LocalGPUs: locals, Shard: frac,
				DoneMB: j.DoneMB(), TotalMB: j.TotalMB,
				GangRate: gangRate * frac,
				Overhead: overhead,
			})
		}
	}

	// Ship plans and collect reports. A plan that cannot be
	// delivered even after retries means the agent is unreachable
	// right now: rather than aborting the run (or stalling the round
	// on a timeout the agent can never answer), it is charged as a
	// missed report immediately and the round proceeds without it.
	want := make(map[string]bool)
	ais := make([]int, 0, len(plans))
	for ai := range plans {
		ais = append(ais, ai)
	}
	sort.Ints(ais) // deterministic send order (drops/retries reproduce)
	for _, ai := range ais {
		plan := plans[ai]
		name := c.agents[ai].name
		plan.Epoch = c.epoch
		plan.Lease = c.cfg.LeaseRounds
		plan.AckRound = c.appliedRound[name]
		if err := c.retry.Send(c.tr, name, comm.Envelope{From: c.tr.Name(), Msg: *plan}); err != nil {
			if c.cfg.StrictReports {
				return fmt.Errorf("distrib: round %d: plan for %q undeliverable: %w", round, name, err)
			}
			o.NoteProtocol("plan_send_failed")
			c.noteMiss(name)
			continue
		}
		o.NoteProtocol("plan_sent")
		want[name] = true
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
			if c.missed[a.name] == 0 || plans[i] != nil {
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
	progress := make(map[job.ID]comm.JobProgress)
	//gflint:ignore wallclock straggler-cutoff deadline on a real transport, not simulated time
	deadline := time.After(c.collectDeadline())
	for len(want) > 0 {
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
			if rep.Round != round || !want[rep.Agent] {
				// Same-round traffic outside the want set — a probe
				// answer or a replayed copy of a report already
				// accepted. Proof of life, nothing to apply.
				c.noteAlive(rep.Agent)
				continue
			}
			delete(want, rep.Agent)
			c.noteAlive(rep.Agent)
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
				id := job.ID(p.JobID)
				// Weight this shard's useful seconds by its share of
				// the gang so the merged value measures gang-time
				// (frac is 1 for single-server jobs).
				p.UsedSecs *= shardFrac[id][rep.Agent]
				prev, seen := progress[id]
				if !seen {
					progress[id] = p
					continue
				}
				// Multi-server gang: each shard reports progress at
				// its fraction of the gang rate over the same base, so
				// increments add (and the gang finishes when the
				// summed progress reaches the total).
				prev.DoneMB += p.DoneMB - baseDone[id]
				if prev.DoneMB >= c.active[id].TotalMB-1e-6 {
					prev.DoneMB = c.active[id].TotalMB
					prev.Finished = true
				}
				prev.UsedSecs += p.UsedSecs
				progress[id] = prev
			}
		case <-deadline:
			if c.cfg.StrictReports {
				return fmt.Errorf("distrib: round %d: %d agents did not report", round, len(want))
			}
			// Straggler cutoff: the round proceeds without the late
			// agents. Their jobs are charged as misses now; with
			// leases their reports reconcile idempotently when they
			// arrive.
			names := make([]string, 0, len(want))
			for name := range want {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				o.NoteProtocol("report_timeout")
				c.noteMiss(name)
			}
			if c.timeouts > c.cfg.MaxAgentTimeouts {
				return fmt.Errorf("distrib: %d missed agent reports, giving up", c.timeouts)
			}
			want = map[string]bool{}
		}
	}

	o.PhaseEnd(obs.PhaseCollect)
	// Backlog that rode in with this round's reports reconciles before
	// apply: an agent whose round-r report was delayed sends rounds
	// r and r+1 together, and r must be charged first so r+1's apply
	// sees monotone progress and both rounds count exactly once.
	c.reconcileLate(round)

	// Apply reports, exactly as the paper's central scheduler updates
	// its view from server heartbeats.
	o.PhaseStart(obs.PhaseApply)
	rep := &core.ExecReport{Ran: make(map[job.ID]core.RanInfo)}
	ranThisRound := make(map[job.ID]bool)
	// Sorted order keeps the per-user usage sums and the profiler's
	// noise-sample consumption identical across runs of one seed.
	for _, id := range job.SortedIDs(progress) {
		p := progress[id]
		j := c.active[id]
		if j == nil {
			continue
		}
		gen := genOf[id]
		gang := float64(gangOf[id])
		if c.cfg.LeaseRounds > 0 && p.DoneMB < j.DoneMB() {
			// A reconciled late report already advanced this job past
			// the reported checkpoint (the plan was built from a stale
			// base). The round still ran and is still charged; progress
			// just never moves backwards.
			p.DoneMB = j.DoneMB()
		}
		j.ApplyReport(p.DoneMB, gen, gang*p.UsedSecs, p.Finished, c.now.Add(c.cfg.Quantum))
		c.usage[j.User] += gang * c.cfg.Quantum
		c.lastApplied[id] = round
		ranThisRound[id] = true
		rep.Ran[id] = core.RanInfo{
			User: j.User, Gen: gen, Gang: gangOf[id],
			OccupiedSecs: c.cfg.Quantum, UsefulSecs: p.UsedSecs,
			Migrated: migrated[id], Finished: p.Finished,
		}
		if !p.Finished {
			c.prof.Observe(j, gen)
		}
	}
	rep.Unplaced = res.Unplaced
	c.policy.Executed(rep)

	newPrev := placement.Assignment{}
	for _, id := range job.SortedIDs(res.Assignment) {
		devs := res.Assignment[id]
		j := c.active[id]
		if j == nil {
			continue
		}
		if j.Finished() {
			c.finishJob(id, j)
			continue
		}
		newPrev[id] = devs
		c.prevGen[id] = genOf[id]
	}
	for id, j := range c.active {
		if j.State() == job.Running && !ranThisRound[id] {
			j.SetRunning(false)
		}
		if !j.Finished() && ranThisRound[id] && j.State() != job.Running {
			j.SetRunning(true)
		}
		j.NoteQuantum(ranThisRound[id])
	}
	c.prev = newPrev
	o.PhaseEnd(obs.PhaseApply)
	c.publishShares()
	o.SetEpoch(c.epoch)
	deg := 0
	if c.cfg.LeaseRounds > 0 {
		thr := c.downThreshold()
		for _, a := range c.agents {
			if m := c.missed[a.name]; m > 0 && m < thr {
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
