// Package obs is the live-observability core: the Observer — the sink
// that turns the engine's event stream (internal/trace) into the gf_*
// metrics, the /debug/sched view of recent decisions and the flight
// recorder's snapshots — a per-round phase profiler, and an opt-in
// HTTP introspection surface (/metrics in Prometheus text exposition,
// /healthz, /debug/sched).
//
// The package imports only the stream's record type and its leaf
// dependencies, so it sits below every instrumented layer without
// cycles. All Observer methods are nil-receiver safe: an
// uninstrumented run passes a nil *Observer and pays only a nil check
// per call site, and instrumentation never feeds back into simulation
// state, so a fixed-seed run is byte-identical with observability on
// or off.
package obs

import (
	"maps"
	"slices"
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

// AllPhases lists every phase; /metrics exposes each one's histogram
// series from the first scrape.
var AllPhases = allPhases[:]

var allPhases = [...]Phase{
	PhaseArrivals, PhaseWaterfill, PhaseDecide, PhaseTrade,
	PhasePlacement, PhaseMigrate, PhaseExecute, PhaseAudit,
	PhaseDispatch, PhaseCollect, PhaseApply, PhaseFaultSweep,
}

// phaseRec is one phase's row of the profiler table. A phase is
// touched in a round when a segment of it closed; its histogram series
// (counts, sum, n) observes each touched round, so its count and sum
// cover all rounds.
type phaseRec struct {
	counts        [len(phaseBuckets)]uint64 // observations ≤ each bucket's bound
	sum           float64
	n             uint64
	start         time.Time     // the open segment's start; zero when none is open
	span          span.ID       // the open segment's span; zero when none
	cur, last     time.Duration // this round so far, the last closed round
	inCur, inLast bool          // touched this round, in the last closed round
}

// Columns of the phase table as its exported views render them.
func lastCol(r *phaseRec) (float64, bool)  { return r.last.Seconds(), r.inLast }
func totalCol(r *phaseRec) (float64, bool) { return r.sum, r.n > 0 }

// observe records one round's time in the phase's histogram series.
func (r *phaseRec) observe(secs float64) {
	for i, ub := range phaseBuckets {
		if secs <= ub {
			r.counts[i]++
		}
	}
	r.sum += secs
	r.n++
}

// phaseBuckets spans sub-microsecond to multi-second phase times.
var phaseBuckets = [...]float64{
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
	now func() time.Time

	mu       sync.Mutex
	curRound int
	curAt    float64
	phases   [len(allPhases)]phaseRec // by position in AllPhases

	// The gf_* series (the families table renders them): counters and
	// gauges, and the labelled families by label value — an entry is
	// added or updated, never removed.
	rounds, admitted, decided, migrated, traded, finished, unplaced float64
	active, pending, simTime, epoch, degraded, quarantined          float64
	netDropped, netDuplicated, netReordered, netDelayed             float64
	netCorrupted, netOneway, netPartition                           float64
	compRepaid, makespan                                            float64
	protocol, faults, compDeficit, rho, jct                         map[string]float64

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
	o := &Observer{now: time.Now}
	o.decisions.SetCap(DefaultRingSize)
	o.trades.SetCap(DefaultRingSize)
	o.protocol, o.faults = map[string]float64{}, map[string]float64{}
	o.compDeficit, o.rho, o.jct = map[string]float64{}, map[string]float64{}, map[string]float64{}
	return o
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
	o.mu.Lock()
	defer o.mu.Unlock()
	maps.Copy(o.rho, rhoByUser)
	maps.Copy(o.jct, jctByQ)
	if makespan >= 0 {
		o.makespan = makespan
	}
}

// BeginRound opens a round at the given simulated time.
func (o *Observer) BeginRound(round int, simNow float64) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.curRound, o.curAt, o.simTime = round, simNow, simNow
	tracer := o.tracer
	o.mu.Unlock()
	tracer.BeginRound(round, simNow)
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
			p.observe(p.cur.Seconds())
		}
		p.last, p.inLast = p.cur, p.inCur
		p.cur, p.inCur = 0, false
	}
	o.consume(r.Events)
	o.shares = append(o.shares[:0], r.Shares...)
	o.rounds++
	o.active, o.pending = float64(r.Active), float64(r.Pending)
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
			o.admitted++
		case trace.KindFinish:
			o.finished++
		case trace.KindMigration:
			o.migrated++
		case trace.KindUnplaced:
			add(&o.unplaced, float64(e.N))
		case trace.KindDecision:
			o.decided++
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
			o.traded++
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
			o.quarantined++
		case trace.KindUnquarantine:
			o.quarantined--
		case trace.KindComp:
			o.compDeficit[string(e.User)] = e.X
			add(&o.compRepaid, e.Y)
		case trace.KindLeaseExpire:
			class, name = "protocol", "lease_expired"
		case trace.KindPartitionHeal:
			class, name = "protocol", "partition_heal"
		case trace.KindFenceReject:
			class, name = "protocol", "fence_reject"
		case trace.KindProtocol:
			class, name = "protocol", e.Name
		case trace.KindNet:
			if c := o.netCounter(e.Name); c != nil { // unknown kinds are ignored
				class, name = "net", e.Name
				*c++
			}
		case trace.KindEpoch:
			o.epoch = float64(e.N)
		case trace.KindDegraded:
			o.degraded = float64(e.N)
		}
		switch class {
		case "":
			continue
		case "fault":
			o.faults[name]++
		case "protocol":
			o.protocol[name]++
		}
		if o.sink != nil {
			o.next.Events = append(o.next.Events, RoundEvent{Kind: class, Name: name})
		}
	}
}

// add grows a counter by d; counters are monotone, so a negative d is
// ignored.
func add(c *float64, d float64) {
	if d < 0 {
		return
	}
	*c += d
}

// netCounter is the counter of an injected network fault by its kind,
// nil for a kind no injector has.
func (o *Observer) netCounter(kind string) *float64 {
	switch kind {
	case "drop":
		return &o.netDropped
	case "dup":
		return &o.netDuplicated
	case "reorder":
		return &o.netReordered
	case "delay":
		return &o.netDelayed
	case "corrupt":
		return &o.netCorrupted
	case "oneway":
		return &o.netOneway
	case "partition":
		return &o.netPartition
	}
	return nil
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
		Rounds:            o.rounds,
		PhaseTotals:       o.seconds(totalCol),
		LastRound:         o.seconds(lastCol),
		Decisions:         o.decisions.Slice(),
		Trades:            o.trades.Slice(),
		DecisionsRecorded: uint64(o.decided),
		TradesRecorded:    uint64(o.traded),
	}
}
