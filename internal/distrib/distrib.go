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

// note records one protocol event of the agent's. Agents run beside the
// engine, not inside it, so theirs go to the observer directly.
func (a *Agent) note(event string) {
	a.obs.Emit(trace.Record{Kind: trace.KindProtocol, Name: event})
}

// SetRetry replaces the default send retry/backoff policy.
func (a *Agent) SetRetry(pol comm.RetryPolicy) { a.retry = a.newRetrier(pol) }

func (a *Agent) newRetrier(pol comm.RetryPolicy) *comm.Retrier {
	user := pol.OnRetry
	pol.OnRetry = func(n int, err error) {
		a.note("send_retry")
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
	a.note("register_sent")
	for env := range a.tr.Recv() {
		if !comm.Verify(env) {
			a.note("corrupt_detected")
			continue
		}
		if a.dedup.Duplicate(env.From, env.Seq) {
			a.note("dup_dropped")
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
					a.note("fence_reject")
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
					a.note("stale_plan_dropped")
					continue
				}
			}
			a.note("plan_received")
			a.pruneAcked(m.AckRound)
			if m.Lease > 0 && len(a.backlog) > 0 && a.backlog[0].Round <= m.Round-m.Lease {
				// Lease expired: the oldest unacknowledged round has
				// aged out of the central's reconciliation window, so
				// that work can never be credited. Park at the plan's
				// checkpoint: drop local state and resync to the
				// central's view.
				a.local = nil
				a.backlog = nil
				a.note("lease_expired")
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
					a.note("report_send_failed")
					continue
				}
				a.note("report_sent")
			} else {
				if err := a.retry.Send(a.tr, a.central, comm.Envelope{From: a.tr.Name(), Msg: rep}); err != nil {
					return err
				}
				a.note("report_sent")
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
		done, used, finished := job.Progress(done, as.TotalMB, as.GangRate, useful)
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

	// ReportTimeout is the straggler cutoff (default 5 s of wall time):
	// the collect phase proceeds without agents that have not reported
	// by then, charges their jobs as misses, and (with LeaseRounds > 0)
	// reconciles their late reports idempotently in a following round.
	ReportTimeout time.Duration

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

	// agents is sorted by name and fixed after WaitForAgents. Every
	// agent contributes one server and gpu.New numbers servers in spec
	// order, so agent i's server is ServerID(i): per-agent state below
	// is a slice by that index, agentIdx resolves a name off the wire
	// (while agents register it holds their arrival positions).
	agents   []agentInfo
	agentIdx map[string]int

	retry *comm.Retrier

	timeouts int
	missed   []int // by agent index: consecutive missed reports (write through setMissed)
	nMissed  int   // agents with missed > 0; zero lets a round skip all failure bookkeeping

	// Per-round tables, kept and cleared so a zero-fault round
	// allocates only what it hands away (the plan payloads,
	// lease-window entries).
	down    gpu.ServerSet  //gflint:noretain suspected-dead servers, the engine's unreachable set
	quanta  []core.Quantum //gflint:noretain the engine's quanta while Execute runs
	byAgent [][]shard      //gflint:noretain by agent index: the slices of the quanta its plan carries
	want    []bool         //gflint:noretain by agent index: report still awaited

	// Partition-tolerance state. epoch fences central incarnations
	// (fresh = 1, restored = snapshot+1); dedup drops duplicate
	// envelope deliveries; the rest implements idempotent late-report
	// reconciliation: lastApplied is the newest round counted per
	// unfinished job, appliedRound the newest round counted per agent
	// (the plans' cumulative AckRound), appliedSet the per-(agent,
	// round) idempotency record, plannedWin the retained window of what
	// each agent was asked to run (what a late report may be charged
	// against), and lateQ the late reports awaiting reconciliation.
	epoch        int
	dedup        *comm.Dedup
	lastApplied  map[job.ID]int
	appliedRound map[string]int
	appliedSet   map[string]map[int]bool
	plannedWin   map[int]map[string]map[job.ID]plannedEntry
	lateQ        []comm.RoundReport
}

// plannedEntry is what the central retains about one job's assignment
// to one agent in one round, for LeaseRounds rounds: the engine's
// granted quantum, so a late report can be verified and settled exactly
// as the on-time report would have been, and the agent's share of the
// gang.
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

type agentInfo struct {
	name string
	gen  gpu.Generation
	gpus int
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
	c := newCentral(tr, policy, cfg, 1)
	c.ecfg.Specs, c.ecfg.Tickets = cfg.Specs, cfg.Tickets
	return c, nil
}

// newCentral is the part of construction a fresh and a restored central
// share: operational defaults, the engine configuration less its
// workload and cluster, and the protocol state of incarnation epoch.
func newCentral(tr comm.Transport, policy core.Policy, cfg CentralConfig, epoch int) *Central {
	if cfg.Quantum == 0 {
		cfg.Quantum = 360 // the engine's default; plans carry it
	}
	if cfg.ReportTimeout == 0 {
		cfg.ReportTimeout = 5 * time.Second
	}
	if cfg.MaxAgentTimeouts == 0 {
		cfg.MaxAgentTimeouts = 50
	}
	c := &Central{
		cfg:          cfg,
		tr:           tr,
		policy:       policy,
		ecfg:         core.Config{Quantum: cfg.Quantum, Costs: cfg.Costs, Obs: cfg.Obs, TraceCap: traceCap},
		agentIdx:     make(map[string]int),
		epoch:        epoch,
		dedup:        comm.NewDedup(),
		lastApplied:  make(map[job.ID]int),
		appliedRound: make(map[string]int),
		appliedSet:   make(map[string]map[int]bool),
		plannedWin:   make(map[int]map[string]map[job.ID]plannedEntry),
	}
	c.emit(trace.Record{Kind: trace.KindEpoch, N: int32(epoch)})
	c.retry = c.newRetrier()
	return c
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

// newRetrier builds the central's send retrier, instrumenting every
// retry through the observer. The sequence space is epoch-salted so a
// restarted central's envelopes are never mistaken for replays of its
// predecessor's (or vice versa) by agents that kept dedup history.
func (c *Central) newRetrier() *comm.Retrier {
	pol := c.cfg.Retry
	pol.SeqBase = uint64(c.epoch) << 32
	user := pol.OnRetry
	pol.OnRetry = func(n int, err error) {
		c.note("send_retry")
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
		c.note("corrupt_detected")
		return false
	}
	if _, isReg := env.Msg.(comm.Register); isReg {
		c.dedup.Reset(env.From)
		return true
	}
	if c.dedup.Duplicate(env.From, env.Seq) {
		c.note("dup_dropped")
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
	c.emit(trace.Record{Kind: trace.KindFenceReject, Name: rep.Agent, N: int32(rep.Round), M: int32(rep.Epoch)})
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
		c.emit(trace.Record{Kind: trace.KindPartitionHeal, Name: c.agents[ai].name})
	}
	c.setMissed(ai, 0)
}

// WaitForAgents blocks until n distinct agents registered (or
// timeout), builds the cluster inventory from their announcements and
// the engine on it, and acks each. The engine validates the workload
// against the inventory as core.New does — duplicate job IDs, a job
// that fits no registered generation, a gang larger than every one —
// and that error is returned. A retried registration for an
// already-known name is idempotent when the inventory matches and
// rejected when it does not, so duplicate Register messages cannot
// corrupt the inventory.
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
					c.note("register_duplicate")
				} else {
					c.ackRegister(reg.Agent, false, fmt.Sprintf(
						"agent %q already registered with %d× %v", reg.Agent, c.agents[i].gpus, c.agents[i].gen))
				}
				continue
			}
			c.agentIdx[reg.Agent] = len(c.agents)
			c.agents = append(c.agents, agentInfo{name: reg.Agent, gen: g, gpus: reg.GPUs})
			c.note("register_received")
		case <-deadline:
			return fmt.Errorf("distrib: only %d of %d agents registered", len(c.agents), n)
		}
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

// buildEngine derives deterministic server IDs from the registered
// agents — sort by name, one server each, so agent i's server is
// ServerID(i) — sizes everything indexed by agent, and builds the
// engine on that cluster: fresh, or from a checkpoint when restoring.
// The engine's profiler is noiseless: agents report true rates.
func (c *Central) buildEngine(cp *core.Checkpoint) error {
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
	c.ecfg.Cluster = cluster
	c.missed = make([]int, len(c.agents))
	c.byAgent = make([][]shard, len(c.agents))
	c.want = make([]bool, len(c.agents))
	prof, err := profiler.New(0.25, 0, 1)
	if err != nil {
		return err
	}
	if cp != nil {
		c.eng, err = core.Restore(c.ecfg, c.policy, (*remoteExecutor)(c), prof, cp)
	} else {
		c.eng, err = core.NewWithExecutor(c.ecfg, c.policy, (*remoteExecutor)(c), prof)
	}
	return err
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
		c.note("rejoin_accepted")
		return true
	}
	c.note("rejoin_rejected")
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
			c.note("late_report_dropped")
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
				// progress only means something together with its
				// siblings in the same round, which is gone.
				continue
			}
			j := pe.q.Job
			if j.Finished() {
				continue
			}
			if c.lastApplied[id] >= rep.Round {
				continue // a newer round already counted this job
			}
			if p.DoneMB < j.DoneMB()-1e-6 {
				continue // stale progress; applying would move the job backwards
			}
			// Settled by the engine exactly as the on-time answer would
			// have been: the quantum is the one it granted that round.
			q := pe.q
			q.Answered, q.DoneMB, q.UsedSecs, q.Finished = true, p.DoneMB, p.UsedSecs, p.Finished
			c.eng.ApplyLate(&q)
			c.noteApplied(id, rep.Round, j.Finished())
			applied = true
		}
		c.markApplied(rep.Agent, rep.Round)
		if applied {
			c.note("late_report_applied")
		} else {
			c.note("late_report_dropped")
		}
	}
}

// markApplied records that agent's report for round has been counted,
// so backlog replays of the same round are never applied again, and
// advances the agent's cumulative ack.
func (c *Central) markApplied(agent string, round int) {
	if c.appliedSet[agent] == nil {
		c.appliedSet[agent] = make(map[int]bool)
	}
	c.appliedSet[agent][round] = true
	if round > c.appliedRound[agent] {
		c.appliedRound[agent] = round
	}
}

// noteApplied records that round's answer for job id goes to the
// engine: no older round may be counted for it again. A finished job
// needs no record — nothing is ever applied to it.
func (c *Central) noteApplied(id job.ID, round int, finished bool) {
	if finished {
		delete(c.lastApplied, id)
	} else {
		c.lastApplied[id] = round
	}
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
		c.drainControl()
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
		for ai, m := range c.missed {
			if m >= thr {
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
	if c.cfg.LeaseRounds > 0 && c.nMissed > 0 {
		thr := c.downThreshold()
		for _, m := range c.missed {
			if m > 0 && m < thr {
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
	for k := range c.byAgent[ai] {
		if sh := &c.byAgent[ai][k]; int64(c.quanta[sh.rec].Job.ID) == id {
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
	for _, shards := range c.byAgent {
		for _, sh := range shards {
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
			c.noteApplied(q.Job.ID, round, q.Finished)
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
	// Trace context shipped in every plan so agent spans join this
	// round's trace (both zero when tracing is off).
	ctr := o.Tracer()
	ctrace := ctr.Trace()
	croot := uint64(ctr.Root())
	cluster := c.ecfg.Cluster

	// Build and ship per-agent plans, in agent order with each plan's
	// jobs in ID order, so one seed puts the same bytes on the wire
	// every run (and drops/retries reproduce). Each quantum is split
	// into one shard per server it touches: device IDs are dense per
	// server and Devs ascending, so a server's devices are one run. The
	// payloads are handed to the transport, so they are fresh every
	// round: two arrays, carved per plan and per shard. Every shard of a
	// gang is sent the whole gang's rate and checkpoint, and the time
	// the engine granted: Overhead is the quantum less Avail, so resume
	// or migration cost, span penalty and degradation all reach the
	// agent as seconds without progress.
	//
	// A plan that cannot be delivered even after retries means the
	// agent is unreachable right now: rather than aborting the run (or
	// stalling the round on a timeout the agent can never answer), it
	// is charged as a missed report immediately and the round proceeds
	// without it.
	o.PhaseStart(obs.PhaseDispatch)
	for ai := range c.byAgent {
		c.byAgent[ai] = c.byAgent[ai][:0]
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
			c.byAgent[sid] = append(c.byAgent[sid], shard{
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
	clear(c.want)
	nWant := 0
	for ai, shards := range c.byAgent {
		if len(shards) == 0 {
			continue
		}
		name := c.agents[ai].name
		first := cluster.Server(gpu.ServerID(ai)).Devices[0]
		plan := comm.RoundPlan{
			Round: round, Quantum: c.cfg.Quantum, Trace: ctrace, Span: croot,
			Epoch: c.epoch, Lease: c.cfg.LeaseRounds, AckRound: c.appliedRound[name],
			Jobs: assignBuf[:len(shards):len(shards)],
		}
		assignBuf = assignBuf[len(shards):]
		for k, sh := range shards {
			q := &qs[sh.rec]
			j := q.Job
			devs := q.Devs[sh.lo:sh.hi]
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
				c.plannedWin[round][name][j.ID] = plannedEntry{q: *q, frac: sh.frac}
			}
			plan.Jobs[k] = comm.JobAssignment{
				JobID: int64(j.ID), User: string(j.User), Model: j.Perf.Model,
				Gang: len(devs), LocalGPUs: locals, Shard: sh.frac,
				DoneMB: j.DoneMB(), TotalMB: j.TotalMB,
				GangRate: j.GangRate(q.Gen),
				Overhead: c.cfg.Quantum - q.Avail,
			}
		}
		if err := c.retry.Send(c.tr, name, comm.Envelope{From: c.tr.Name(), Msg: plan}); err != nil {
			if c.cfg.StrictReports {
				return fmt.Errorf("distrib: round %d: plan for %q undeliverable: %w", round, name, err)
			}
			c.note("plan_send_failed")
			c.noteMiss(ai)
			continue
		}
		c.note("plan_sent")
		c.want[ai] = true
		nWant++
	}
	if c.timeouts > c.cfg.MaxAgentTimeouts {
		return fmt.Errorf("distrib: %d missed agent reports, giving up", c.timeouts)
	}
	if c.cfg.LeaseRounds > 0 {
		c.probeAndSlide(round)
	}
	o.PhaseEnd(obs.PhaseDispatch)

	o.PhaseStart(obs.PhaseCollect)
	//gflint:ignore wallclock straggler-cutoff deadline on a real transport, not simulated time
	deadline := time.After(c.cfg.ReportTimeout)
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
			c.note("report_received")
			if c.cfg.LeaseRounds > 0 {
				c.markApplied(rep.Agent, round) // counted on time
			}
			ctr.Inject(rep.Spans)
			for _, p := range rep.Jobs {
				// Progress for a job this agent's plan did not carry
				// has nothing to be charged against and is dropped.
				sh := c.shardOf(ai, p.JobID)
				if sh == nil || sh.got {
					continue
				}
				sh.got = true
				if sh.lo == 0 { // the gang's first server answers for it
					q := &qs[sh.rec]
					q.DoneMB, q.UsedSecs, q.Finished = p.DoneMB, p.UsedSecs, p.Finished
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
					c.note("report_timeout")
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

// probeAndSlide is the lease protocol's share of dispatch: it probes
// degraded agents that got no assignment and slides the reconciliation
// window.
func (c *Central) probeAndSlide(round int) {
	// An empty plan paces a cut-off agent's protocol (ack, lease
	// bookkeeping) and gives a healed report path something to answer,
	// so recovery does not depend on the agent still hosting work.
	// Probes are best-effort: no reply expected, failures charge nothing.
	for i, a := range c.agents {
		if c.missed[i] == 0 || len(c.byAgent[i]) > 0 {
			continue
		}
		probe := comm.RoundPlan{
			Round: round, Quantum: c.cfg.Quantum,
			Epoch: c.epoch, Lease: c.cfg.LeaseRounds, AckRound: c.appliedRound[a.name],
		}
		if err := c.retry.Send(c.tr, a.name, comm.Envelope{From: c.tr.Name(), Msg: probe}); err != nil {
			c.note("probe_send_failed")
			continue
		}
		c.note("probe_sent")
	}
	// The reconciliation window slides: plans and applied-round
	// records older than the lease can never be charged again.
	floor := round - 1 - c.cfg.LeaseRounds
	for r := range c.plannedWin {
		if r <= floor {
			delete(c.plannedWin, r)
		}
	}
	for _, rounds := range c.appliedSet {
		for r := range rounds {
			if r <= floor {
				delete(rounds, r)
			}
		}
	}
}
