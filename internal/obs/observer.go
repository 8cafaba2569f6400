package obs

import (
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/obs/span"
	"repro/internal/ring"
	"repro/internal/trace"
)

// Phase names one segment of a scheduling round. The simulation core
// and the distributed central scheduler share one namespace so grid
// sweeps and live deployments report comparable profiles.
type Phase string

// Phases of a scheduling round. The simulation core uses arrivals
// through audit; the distributed central scheduler additionally uses
// dispatch/collect/apply (its execute happens on remote agents).
const (
	PhaseArrivals   Phase = "arrivals"   // admit newly arrived jobs
	PhaseWaterfill  Phase = "waterfill"  // ticket water-filling (policy + fair reference)
	PhaseDecide     Phase = "decide"     // full policy decision
	PhaseTrade      Phase = "trade"      // resource-trading loop inside decide
	PhasePlacement  Phase = "placement"  // gang → device assignment
	PhaseMigrate    Phase = "migrate"    // migration bookkeeping
	PhaseExecute    Phase = "execute"    // advancing job progress
	PhaseAudit      Phase = "audit"      // invariant auditor
	PhaseDispatch   Phase = "dispatch"   // distrib: shipping round plans
	PhaseCollect    Phase = "collect"    // distrib: waiting for agent reports
	PhaseApply      Phase = "apply"      // distrib: applying agent reports
	PhaseFaultSweep Phase = "faultsweep" // injected-fault state sweep (crash, quarantine, repair)
)

// AllPhases lists every phase; the Observer pre-registers each so
// /metrics exposes the full histogram family from the first scrape.
var AllPhases = allPhases[:]

var allPhases = [...]Phase{
	PhaseArrivals, PhaseWaterfill, PhaseDecide, PhaseTrade,
	PhasePlacement, PhaseMigrate, PhaseExecute, PhaseAudit,
	PhaseDispatch, PhaseCollect, PhaseApply, PhaseFaultSweep,
}

// phaseRec is one phase's row of the profiler table. A phase is
// touched in a round when a segment of it closed; the histogram series
// observes each touched round, so its count and sum cover all rounds.
type phaseRec struct {
	hist          *Histogram
	start         time.Time     // the open segment's start; zero when none is open
	span          span.ID       // the open segment's span; zero when none
	cur, last     time.Duration // this round so far, the last closed round
	inCur, inLast bool          // touched this round, in the last closed round
}

// Columns of the phase table as its exported views render them.
func lastCol(r *phaseRec) (float64, bool)  { return r.last.Seconds(), r.inLast }
func totalCol(r *phaseRec) (float64, bool) { return r.hist.Sum(), r.hist.Count() > 0 }

// phaseBuckets spans sub-microsecond to multi-second phase times.
var phaseBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5,
}

// Decision is one explained scheduling decision: which job landed
// where, and the structured "why" behind it.
type Decision struct {
	Round int     `json:"round"`
	At    float64 `json:"sim_time_seconds"`
	Job   int64   `json:"job"`
	User  string  `json:"user"`
	Gen   string  `json:"gen"`
	Gang  int     `json:"gang"`
	// Devices are the concrete device IDs the gang was placed on.
	Devices []int `json:"devices,omitempty"`

	// Reason is how the slot was funded: "credit" (fair-share deficit
	// credit), "backfill" (work-conserving leftover capacity), or
	// "policy" for schedulers that do not explain themselves.
	Reason string `json:"reason"`
	// CreditBefore/CreditAfter are the user's deficit credit on the
	// chosen generation around this decision (credit-funded only).
	CreditBefore float64 `json:"credit_before,omitempty"`
	CreditAfter  float64 `json:"credit_after,omitempty"`

	// Migrated marks a generation/server change this round, with the
	// generation the job came from.
	Migrated bool   `json:"migrated,omitempty"`
	FromGen  string `json:"from_gen,omitempty"`
}

// TradeEvent is one executed resource trade.
type TradeEvent struct {
	Round    int     `json:"round"`
	At       float64 `json:"sim_time_seconds"`
	Buyer    string  `json:"buyer"`
	Seller   string  `json:"seller"`
	Fast     string  `json:"fast"`
	Slow     string  `json:"slow"`
	FastGPUs float64 `json:"fast_gpus"`
	SlowGPUs float64 `json:"slow_gpus"`
	Price    float64 `json:"price"`
}

// RoundEvent is one discrete event of a round as the flight recorder
// keeps it: an injected fault ("fault": server-down, job-crash,
// migration-fail, quarantine, degrade), an injected network fault
// ("net": drop, dup, reorder, delay, corrupt, oneway, partition) or a
// distributed-protocol event ("protocol").
type RoundEvent struct {
	Kind string `json:"kind"`
	Name string `json:"name"`
}

// ShareSample is one user's usage/fair share pair as published during
// a round.
type ShareSample struct {
	User  string  `json:"user"`
	Usage float64 `json:"usage_frac"`
	Fair  float64 `json:"fair_frac"`
}

// RoundSnapshot is everything the Observer learned about one round,
// handed to a RoundSink (the flight recorder) at EndRound.
type RoundSnapshot struct {
	Round     int                `json:"round"`
	SimAt     float64            `json:"sim_at"`
	Phases    map[string]float64 `json:"phase_seconds,omitempty"`
	Decisions []Decision         `json:"decisions,omitempty"`
	Trades    []TradeEvent       `json:"trades,omitempty"`
	Events    []RoundEvent       `json:"events,omitempty"`
	Shares    []ShareSample      `json:"shares,omitempty"`
	Spans     []span.Span        `json:"spans,omitempty"`
}

// RoundSink consumes per-round snapshots. Implementations must be
// safe for concurrent use with scrapes; the Observer calls
// RecordRound outside its own lock.
type RoundSink interface {
	RecordRound(RoundSnapshot)
}

// Snapshot is the /debug/sched payload: recent explained decisions
// and where round time went.
type Snapshot struct {
	Round             int                `json:"round"`
	SimTimeSeconds    float64            `json:"sim_time_seconds"`
	Rounds            float64            `json:"rounds_total"`
	PhaseTotals       map[string]float64 `json:"phase_totals_seconds"`
	LastRound         map[string]float64 `json:"last_round_seconds"`
	Decisions         []Decision         `json:"decisions"`
	Trades            []TradeEvent       `json:"trades"`
	DecisionsRecorded uint64             `json:"decisions_recorded"`
	TradesRecorded    uint64             `json:"trades_recorded"`
}

// Round is what the engine hands over when a round closes: the round's
// event stream and its end-of-round samples. Both slices are the
// engine's reused buffers; the Observer copies what it keeps.
type Round struct {
	Events []trace.Record //gflint:noretain
	Shares []ShareSample  //gflint:noretain sorted by user
	// Active and Pending count admitted-unfinished and not-yet-arrived
	// jobs.
	Active, Pending int
}

// DefaultRingSize bounds the decision and trade views.
const DefaultRingSize = 256

// Observer is the live sink of the engine's event stream: it turns
// each round's records into the gf_* metrics, the /debug/sched view of
// recent decisions and trades, and the flight recorder's per-round
// snapshot, and it profiles the round's phases. The zero value is not
// usable; use New. A nil *Observer is valid everywhere and does
// nothing, so instrumented code needs no flag checks.
type Observer struct {
	reg *Registry
	now func() time.Time

	roundsTotal    *Counter
	admittedTotal  *Counter
	decisionsTotal *Counter
	migrationsTot  *Counter
	tradesTotal    *Counter
	finishedTotal  *Counter
	unplacedTotal  *Counter
	jobsActive     *Gauge
	jobsPending    *Gauge
	simTime        *Gauge
	protoEvents    *CounterVec
	faultEvents    *CounterVec
	netFaults      map[string]*Counter
	epochGauge     *Gauge
	agentsDegraded *Gauge
	quarServers    *Gauge
	compDeficit    *GaugeVec
	compRepaid     *Counter
	sloRho         *GaugeVec
	sloJCT         *GaugeVec
	sloMakespan    *Gauge

	mu       sync.Mutex
	curRound int
	curAt    float64
	phases   [len(allPhases)]phaseRec // by position in AllPhases

	// Span tracing and the per-round sink (flight recorder). The
	// tracer pointer is set once before the run starts and read-only
	// afterwards.
	tracer *span.Tracer
	sink   RoundSink

	decisions ring.Ring[Decision]
	trades    ring.Ring[TradeEvent]
	shares    []ShareSample // the last round's, rendered at scrape time
	// next is the sink's snapshot under construction: what Emit saw
	// since the last round closed, completed by EndRound.
	next RoundSnapshot
}

// New builds an Observer.
func New() *Observer {
	reg := NewRegistry()
	o := &Observer{reg: reg, now: time.Now}
	o.decisions.SetCap(DefaultRingSize)
	o.trades.SetCap(DefaultRingSize)
	o.roundsTotal = reg.Counter("gf_rounds_total", "Scheduling rounds completed.").With()
	o.admittedTotal = reg.Counter("gf_jobs_admitted_total", "Jobs admitted into the active set.").With()
	o.decisionsTotal = reg.Counter("gf_decisions_total", "Job placement decisions recorded.").With()
	o.migrationsTot = reg.Counter("gf_migrations_total", "Job migrations executed.").With()
	o.tradesTotal = reg.Counter("gf_trades_total", "Resource trades executed.").With()
	o.finishedTotal = reg.Counter("gf_jobs_finished_total", "Jobs that reached completion.").With()
	o.unplacedTotal = reg.Counter("gf_unplaced_total", "Scheduled jobs fragmentation left unplaced.").With()
	o.jobsActive = reg.Gauge("gf_jobs_active", "Admitted, unfinished jobs.").With()
	o.jobsPending = reg.Gauge("gf_jobs_pending", "Jobs not yet arrived.").With()
	o.simTime = reg.Gauge("gf_sim_time_seconds", "Simulated (virtual) time.").With()
	hist := reg.Histogram("gf_round_phase_seconds",
		"Wall-clock time spent in each scheduler phase per round.", phaseBuckets, "phase")
	for i, p := range allPhases {
		o.phases[i].hist = hist.With(string(p))
	}
	reg.SampledGauge("gf_user_usage_fraction",
		"User's fraction of total occupied GPU-seconds so far.", "user",
		o.sampleShares(func(s ShareSample) float64 { return s.Usage }))
	reg.SampledGauge("gf_user_fair_fraction",
		"User's fraction under the water-filled fair reference.", "user",
		o.sampleShares(func(s ShareSample) float64 { return s.Fair }))
	o.protoEvents = reg.Counter("gf_protocol_events_total",
		"Distributed-protocol events by type.", "event")
	o.faultEvents = reg.Counter("gf_faults_injected_total",
		"Injected fault events by kind (server-down, job-crash, migration-fail, quarantine, degrade).", "kind")
	o.netFaults = map[string]*Counter{
		"drop":      reg.Counter("gf_net_dropped_total", "Messages the network fault injector silently dropped.").With(),
		"dup":       reg.Counter("gf_net_duplicated_total", "Messages the network fault injector delivered twice.").With(),
		"reorder":   reg.Counter("gf_net_reordered_total", "Messages the network fault injector reordered.").With(),
		"delay":     reg.Counter("gf_net_delayed_total", "Messages the network fault injector delayed one round.").With(),
		"corrupt":   reg.Counter("gf_net_corrupted_total", "Messages the network fault injector corrupted in flight.").With(),
		"oneway":    reg.Counter("gf_net_oneway_refused_total", "Sends refused by an injected one-way partition.").With(),
		"partition": reg.Counter("gf_net_partition_refused_total", "Sends refused by an injected full partition.").With(),
	}
	o.epochGauge = reg.Gauge("gf_epoch",
		"Central scheduler epoch; increases across restarts and fences stale protocol traffic.").With()
	o.agentsDegraded = reg.Gauge("gf_agents_degraded",
		"Agents currently unheard-from but still inside their degraded-mode lease.").With()
	o.quarServers = reg.Gauge("gf_servers_quarantined",
		"Servers currently excluded by the quarantine circuit breaker.").With()
	o.compDeficit = reg.Gauge("gf_user_comp_deficit_seconds",
		"Outstanding failure-compensation debt per user, in occupied GPU-seconds.", "user")
	o.compRepaid = reg.Counter("gf_comp_repaid_gpu_seconds_total",
		"Cumulative failure-compensation repaid, in occupied GPU-seconds.").With()
	o.sloRho = reg.Gauge("gf_finish_time_fairness_rho",
		"Finish-time fairness ρ per user (Themis): mean JCT over standalone-time × active users; ≤ 1 is fair.", "user")
	o.sloJCT = reg.Gauge("gf_jct_seconds",
		"Job completion time quantiles over finished jobs, in simulated seconds.", "q")
	o.sloMakespan = reg.Gauge("gf_makespan_seconds",
		"Simulated time at which the last job finished.").With()
	bi := reg.Gauge("gf_build_info",
		"Build metadata; value is always 1.", "goversion", "revision")
	bi.With(runtime.Version(), vcsRevision()).Set(1)
	return o
}

// sampleShares is a share gauge family's scrape-time source: the last
// round's samples, one value of each.
func (o *Observer) sampleShares(val func(ShareSample) float64) func(emit func(string, float64)) {
	return func(emit func(string, float64)) {
		o.mu.Lock()
		defer o.mu.Unlock()
		for _, s := range o.shares {
			emit(s.User, val(s))
		}
	}
}

// vcsRevision extracts the VCS commit the binary was built from
// ("unknown" when build info is absent, e.g. under `go test` before
// Go stamps test binaries).
func vcsRevision() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// SetTracer attaches a span tracer; phase starts/ends and round
// boundaries then emit spans automatically. Call before the run
// starts. A nil Observer ignores the call.
func (o *Observer) SetTracer(t *span.Tracer) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.tracer = t
	o.mu.Unlock()
}

// Tracer returns the attached tracer (nil when absent or o is nil).
func (o *Observer) Tracer() *span.Tracer {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.tracer
}

// SetSink attaches a per-round snapshot consumer (the flight
// recorder). Call before the run starts.
func (o *Observer) SetSink(s RoundSink) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.sink = s
	o.mu.Unlock()
}

// SetSLO publishes end-of-run fairness SLO metrics: per-user
// finish-time fairness ρ, JCT quantiles (q is "0.5", "0.95",
// "0.99"), and makespan. Pass a negative value to skip a gauge.
func (o *Observer) SetSLO(rhoByUser map[string]float64, jctByQ map[string]float64, makespan float64) {
	if o == nil {
		return
	}
	setAll(o.sloRho, rhoByUser)
	setAll(o.sloJCT, jctByQ)
	if makespan >= 0 {
		o.sloMakespan.Set(makespan)
	}
}

// setAll sets one series of v per entry of m, in label order.
func setAll(v *GaugeVec, m map[string]float64) {
	labels := make([]string, 0, len(m))
	for l := range m {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		v.With(l).Set(m[l])
	}
}

// Registry exposes the underlying registry (nil for a nil Observer).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// BeginRound opens a round at the given simulated time.
func (o *Observer) BeginRound(round int, simNow float64) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.curRound, o.curAt = round, simNow
	tracer := o.tracer
	o.mu.Unlock()
	tracer.BeginRound(round, simNow)
	o.simTime.Set(simNow)
}

// row returns p's row of the phase table, nil (ignored) off AllPhases.
func (o *Observer) row(p Phase) *phaseRec {
	if i := slices.Index(allPhases[:], p); i >= 0 {
		return &o.phases[i]
	}
	return nil
}

// PhaseStart opens a segment of a phase, timed by the profiler and a
// span from one clock reading. Segments accumulate within the round.
func (o *Observer) PhaseStart(p Phase) {
	if o == nil {
		return
	}
	t := o.now()
	o.mu.Lock()
	if r := o.row(p); r != nil {
		r.start, r.span = t, o.tracer.StartAt(string(p), t)
	}
	o.mu.Unlock()
}

// PhaseEnd closes the current segment of a phase.
func (o *Observer) PhaseEnd(p Phase) {
	if o == nil {
		return
	}
	t := o.now()
	o.mu.Lock()
	if r := o.row(p); r != nil {
		o.endPhase(r, t)
	}
	o.mu.Unlock()
}

// endPhase closes r's open segment, if any, and its span at t.
func (o *Observer) endPhase(r *phaseRec, t time.Time) {
	if !r.start.IsZero() {
		r.cur += t.Sub(r.start)
		r.start, r.inCur = time.Time{}, true
	}
	o.tracer.EndAt(r.span, t)
	r.span = 0
}

// EndRound closes the round: its events reach every sink in one pass
// under one lock, and each phase touched gets one histogram
// observation as the round rolls into the phase table in place. A
// phase still open — the round failed inside it — is ended here, with
// the round's span, so the failing round's snapshot is complete.
func (o *Observer) EndRound(r Round) {
	if o == nil {
		return
	}
	t := o.now()
	o.mu.Lock()
	for i := range o.phases {
		p := &o.phases[i]
		o.endPhase(p, t) // a no-op for all but a failed round's open ones
		if p.inCur {
			p.hist.Observe(p.cur.Seconds())
		}
		p.last, p.inLast = p.cur, p.inCur
		p.cur, p.inCur = 0, false
	}
	o.consume(r.Events)
	o.shares = append(o.shares[:0], r.Shares...)
	tracer, sink := o.tracer, o.sink
	snap := o.next
	o.next = RoundSnapshot{}
	if sink != nil {
		snap.Round, snap.SimAt = o.curRound, o.curAt
		snap.Phases = o.seconds(lastCol)
		snap.Shares = append([]ShareSample(nil), r.Shares...)
	}
	o.mu.Unlock()
	tracer.EndRoundAt(t)
	o.roundsTotal.Inc()
	o.jobsActive.Set(float64(r.Active))
	o.jobsPending.Set(float64(r.Pending))
	if sink != nil {
		if tracer != nil {
			snap.Spans = tracer.RoundSpans(snap.Round)
		}
		sink.RecordRound(snap)
	}
}

// Emit feeds records from outside a round — an agent's or the network
// fault injector's, from any goroutine, or the engine's between rounds
// — to the same sinks; with a flight recorder attached they join the
// next round's snapshot.
//
//gflint:noretain recs
func (o *Observer) Emit(recs ...trace.Record) {
	if o == nil || len(recs) == 0 {
		return
	}
	o.mu.Lock()
	o.consume(recs)
	o.mu.Unlock()
}

// consume is the stream's one interpreter: every counter, the decision
// and trade views and, with a sink attached, the snapshot's decisions,
// trades and events derive from this pass. The caller holds o.mu.
//
// Only decisions that outlive the call are materialized — all of them
// for a sink, else the newest that fit the view — and their device
// lists share one block.
func (o *Observer) consume(recs []trace.Record) {
	keep := o.decisions.Cap()
	if o.sink != nil {
		keep = len(recs)
	}
	var nDec, nKept, nDevs int
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].Kind != trace.KindDecision {
			continue
		}
		if nDec++; nDec <= keep {
			nKept++
			nDevs += len(recs[i].Devs)
		}
	}
	skip := nDec - nKept
	devs := make([]int, 0, nDevs)
	if o.sink != nil && nKept > 0 {
		o.next.Decisions = slices.Grow(o.next.Decisions, nKept)
	}

	for i := range recs {
		e := &recs[i]
		var class, name string
		switch e.Kind {
		case trace.KindArrival:
			o.admittedTotal.Inc()
		case trace.KindFinish:
			o.finishedTotal.Inc()
		case trace.KindMigration:
			o.migrationsTot.Inc()
		case trace.KindUnplaced:
			o.unplacedTotal.Add(float64(e.N))
		case trace.KindDecision:
			o.decisionsTotal.Inc()
			if skip > 0 {
				skip--
				break
			}
			d := Decision{
				Round: o.curRound, At: float64(e.At),
				Job: int64(e.Job), User: string(e.User), Gen: e.Gen.String(), Gang: int(e.N),
				Reason: e.Name, CreditBefore: e.X, CreditAfter: e.Y,
			}
			if e.M != 0 {
				d.Migrated, d.FromGen = true, e.From.String()
			}
			at := len(devs)
			for _, dev := range e.Devs {
				devs = append(devs, int(dev))
			}
			d.Devices = devs[at:len(devs):len(devs)]
			o.decisions.Push(d)
			if o.sink != nil {
				o.next.Decisions = append(o.next.Decisions, d)
			}
		case trace.KindTrade:
			o.tradesTotal.Inc()
			t := TradeEvent{
				Round: o.curRound, At: float64(e.At),
				Buyer: string(e.User), Seller: e.Name, Fast: e.Gen.String(), Slow: e.From.String(),
				FastGPUs: e.X, SlowGPUs: e.Y, Price: e.Z,
			}
			o.trades.Push(t)
			if o.sink != nil {
				o.next.Trades = append(o.next.Trades, t)
			}
		case trace.KindFailure:
			class, name = "fault", "server-down"
		case trace.KindJobCrash:
			class, name = "fault", "job-crash"
		case trace.KindMigFail:
			class, name = "fault", "migration-fail"
		case trace.KindDegrade:
			class, name = "fault", "degrade"
		case trace.KindQuarantine:
			class, name = "fault", "quarantine"
			o.quarServers.Add(1)
		case trace.KindUnquarantine:
			o.quarServers.Add(-1)
		case trace.KindComp:
			o.compDeficit.With(string(e.User)).Set(e.X)
			o.compRepaid.Add(e.Y)
		case trace.KindLeaseExpire:
			class, name = "protocol", "lease_expired"
		case trace.KindPartitionHeal:
			class, name = "protocol", "partition_heal"
		case trace.KindFenceReject:
			class, name = "protocol", "fence_reject"
		case trace.KindProtocol:
			class, name = "protocol", e.Name
		case trace.KindNet:
			if c := o.netFaults[e.Name]; c != nil { // unknown kinds are ignored
				class, name = "net", e.Name
				c.Inc()
			}
		case trace.KindEpoch:
			o.epochGauge.Set(float64(e.N))
		case trace.KindDegraded:
			o.agentsDegraded.Set(float64(e.N))
		}
		switch class {
		case "":
			continue
		case "fault":
			o.faultEvents.With(name).Inc()
		case "protocol":
			o.protoEvents.With(name).Inc()
		}
		if o.sink != nil {
			o.next.Events = append(o.next.Events, RoundEvent{Kind: class, Name: name})
		}
	}
}

// PhaseTotals returns cumulative seconds per phase (phases never
// touched are omitted). Nil for a nil Observer.
func (o *Observer) PhaseTotals() map[string]float64 {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.seconds(totalCol)
}

// seconds renders one column of the phase table under its exported
// key type, keeping the phases the column marks touched.
func (o *Observer) seconds(col func(*phaseRec) (float64, bool)) map[string]float64 {
	out := make(map[string]float64, len(allPhases))
	for i := range o.phases {
		if secs, ok := col(&o.phases[i]); ok {
			out[string(allPhases[i])] = secs
		}
	}
	return out
}

// Snapshot captures the introspection payload, decisions and trades
// oldest-first.
func (o *Observer) Snapshot() Snapshot {
	if o == nil {
		return Snapshot{}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return Snapshot{
		Round:             o.curRound,
		SimTimeSeconds:    o.curAt,
		Rounds:            o.roundsTotal.Value(),
		PhaseTotals:       o.seconds(totalCol),
		LastRound:         o.seconds(lastCol),
		Decisions:         o.decisions.Slice(),
		Trades:            o.trades.Slice(),
		DecisionsRecorded: uint64(o.decisionsTotal.Value()),
		TradesRecorded:    uint64(o.tradesTotal.Value()),
	}
}
