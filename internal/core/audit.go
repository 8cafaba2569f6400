package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/placement"
	"repro/internal/simclock"
	"repro/internal/trade"
)

// AuditMode selects how the engine's runtime invariant auditor reacts
// to a violation. The zero value is AuditStrict, so every simulation —
// including the whole test suite — runs fully audited unless a caller
// explicitly opts out.
type AuditMode int

const (
	// AuditStrict fails the round (Run returns an error) on the first
	// violated invariant. This is the default and what all tests use.
	AuditStrict AuditMode = iota

	// AuditCount records violations and keeps simulating — the
	// production mode: one bad round should not abort a long sweep,
	// but it must show up in the report.
	AuditCount

	// AuditOff skips invariant checking entirely.
	AuditOff
)

func (m AuditMode) String() string {
	switch m {
	case AuditStrict:
		return "strict"
	case AuditCount:
		return "count"
	case AuditOff:
		return "off"
	default:
		return fmt.Sprintf("AuditMode(%d)", int(m))
	}
}

// ParseAuditMode converts a flag value ("strict", "count", "off") to a
// mode.
func ParseAuditMode(s string) (AuditMode, error) {
	switch s {
	case "strict":
		return AuditStrict, nil
	case "count":
		return AuditCount, nil
	case "off":
		return AuditOff, nil
	default:
		return 0, fmt.Errorf("core: unknown audit mode %q (want strict, count, or off)", s)
	}
}

// Invariant names as they appear in AuditReport.Counts.
const (
	InvCapacity     = "capacity"     // placed gang width ≤ per-generation capacity net of failures
	InvGang         = "gang"         // every gang fully placed on devices of a single generation it fits
	InvDoublePlace  = "double-place" // no device assigned to two jobs in one round
	InvDownServer   = "down-server"  // no placed device sits on a failed server
	InvTickets      = "tickets"      // runtime ticket state stays non-negative
	InvConservation = "conservation" // charged GPU-seconds per round ≤ capacity × quantum, per generation
	InvUsefulBound  = "useful-bound" // useful seconds ≤ occupied seconds ≤ quantum, per job
	InvQuarantine   = "quarantine"   // no placed device sits on a quarantined server
	InvCompensation = "compensation" // per-user fault deficit drains monotonically while the user is active
	InvTradePrice   = "trade-price"  // every trade is between two users of unequal speedups, priced strictly between them, paid at its price
	InvDrill        = "drill"        // synthetic violation injected by Config.AuditDrillRound
)

// AuditViolation is one recorded invariant breach.
type AuditViolation struct {
	Round     int
	At        simclock.Time
	Invariant string
	Detail    string
}

func (v AuditViolation) String() string {
	return fmt.Sprintf("round %d (t=%v): %s: %s", v.Round, v.At, v.Invariant, v.Detail)
}

// AuditError is the error a strict-mode run aborts with; it wraps the
// round's first violation so callers (the flight recorder's dump
// trigger, tests) can distinguish audit failures from other
// round-loop errors with errors.As.
type AuditError struct {
	Violation AuditViolation
}

func (e *AuditError) Error() string {
	return fmt.Sprintf("core: audit: %s", e.Violation)
}

// maxRecordedViolations bounds the per-violation detail kept in
// counting mode; Counts keeps exact totals beyond it.
const maxRecordedViolations = 64

// AuditReport summarizes what the auditor saw over a run. It is
// carried in Result.Audit (nil only when auditing was off).
type AuditReport struct {
	Mode   AuditMode
	Rounds int // rounds audited
	Checks int // individual invariant evaluations

	// Counts is violations per invariant name; empty means clean.
	Counts map[string]int

	// Violations holds the first maxRecordedViolations breaches with
	// detail, in occurrence order.
	Violations []AuditViolation
}

// Total returns the total violation count across invariants.
func (r *AuditReport) Total() int {
	n := 0
	for _, c := range r.Counts {
		n += c
	}
	return n
}

// Clean reports whether no invariant was ever violated.
func (r *AuditReport) Clean() bool { return r.Total() == 0 }

// Summary renders a one-line digest, e.g. for CLI output.
func (r *AuditReport) Summary() string {
	if r.Clean() {
		return fmt.Sprintf("audit[%v]: %d rounds, %d checks, clean", r.Mode, r.Rounds, r.Checks)
	}
	names := make([]string, 0, len(r.Counts))
	for n := range r.Counts {
		names = append(names, n)
	}
	sort.Strings(names)
	s := fmt.Sprintf("audit[%v]: %d rounds, %d checks, %d VIOLATIONS:", r.Mode, r.Rounds, r.Checks, r.Total())
	for _, n := range names {
		s += fmt.Sprintf(" %s=%d", n, r.Counts[n])
	}
	return s
}

// auditor is the engine's always-on invariant checker. It is fed by
// runRound (placement, tickets, capacity) and settle (per-job
// accounting) and verifies conservation at every round boundary.
type auditor struct {
	mode    AuditMode
	cluster *gpu.Cluster
	quantum simclock.Duration
	rep     AuditReport
	owners  *placement.Owners // the engine's device-owner table, shared with placement validation

	// Per-round scratch, reset by beginRound.
	round   int
	now     simclock.Time
	caps    map[gpu.Generation]int
	busyGen [gpu.NumGenerations]float64
}

func newAuditor(mode AuditMode, cluster *gpu.Cluster, quantum simclock.Duration, owners *placement.Owners) *auditor {
	return &auditor{
		mode:    mode,
		cluster: cluster,
		quantum: quantum,
		owners:  owners,
		rep:     AuditReport{Mode: mode, Counts: make(map[string]int)},
	}
}

func (a *auditor) on() bool { return a.mode != AuditOff }

func (a *auditor) violate(invariant, format string, args ...any) {
	a.rep.Counts[invariant]++
	if len(a.rep.Violations) < maxRecordedViolations {
		a.rep.Violations = append(a.rep.Violations, AuditViolation{
			Round: a.round, At: a.now, Invariant: invariant,
			Detail: fmt.Sprintf(format, args...),
		})
	}
}

// beginRound resets per-round state and checks the runtime ticket
// invariant after this round's ticket changes were applied.
func (a *auditor) beginRound(round int, now simclock.Time, caps map[gpu.Generation]int, tickets map[job.UserID]float64) {
	if !a.on() {
		return
	}
	a.round = round
	a.now = now
	a.caps = caps
	a.busyGen = [gpu.NumGenerations]float64{}
	a.rep.Rounds++
	a.rep.Checks += len(tickets)
	for _, t := range tickets {
		if t >= 0 {
			continue
		}
		// Recorded in user order, not map order: which violation is the
		// round's first must not vary between runs.
		for _, u := range job.SortedUsers(tickets) {
			if t := tickets[u]; t < 0 {
				a.violate(InvTickets, "user %s has %v tickets", u, t)
			}
		}
		break
	}
}

// checkAssignment audits the concrete device placement of one round:
// gang integrity, capacity, double placement, and failed servers.
// placed is the round's execute list — the assignment in job-ID order
// — so violations come out in a deterministic order, and the whole
// check is O(placed devices) with no hashing and no allocation.
func (a *auditor) checkAssignment(placed []Quantum, down, quarantined *gpu.ServerSet) {
	if !a.on() {
		return
	}
	a.owners.Begin()
	serversOut := down.Len() > 0 || quarantined.Len() > 0
	var width [gpu.NumGenerations]int
	for i := range placed {
		j, devs := placed[i].Job, placed[i].Devs
		id := j.ID
		a.rep.Checks += 1 + len(devs)
		if len(devs) != j.Gang {
			a.violate(InvGang, "job %d holds %d devices, gang is %d", id, len(devs), j.Gang)
		}
		if len(devs) == 0 {
			continue
		}
		gen := a.cluster.Device(devs[0]).Gen
		width[gen] += len(devs)
		for _, d := range devs {
			dev := a.cluster.Device(d)
			if dev.Gen != gen {
				a.violate(InvGang, "job %d spans generations %v and %v", id, gen, dev.Gen)
			}
			if prev, dup := a.owners.Claim(d, id); dup {
				a.violate(InvDoublePlace, "device %d held by jobs %d and %d", d, prev, id)
			}
			if !serversOut {
				continue
			}
			if down.Has(dev.Server) {
				a.violate(InvDownServer, "job %d placed on failed server %d (device %d)", id, dev.Server, d)
			}
			if quarantined.Has(dev.Server) {
				a.violate(InvQuarantine, "job %d placed on quarantined server %d (device %d)", id, dev.Server, d)
			}
		}
		if !j.Perf.FitsOn(gen) {
			a.violate(InvGang, "job %d (%s) placed on unusable generation %v", id, j.Perf.Model, gen)
		}
	}
	for g, w := range width {
		if w == 0 {
			continue
		}
		a.rep.Checks++
		if gen := gpu.Generation(g); w > a.caps[gen] {
			a.violate(InvCapacity, "%d GPUs placed on %v, capacity %d", w, gen, a.caps[gen])
		}
	}
}

// checkTrades audits the policy's trades: each moves a positive amount
// of fast capacity from one user to another whose speedups differ, at a
// price strictly between the two speedups, and the slow capacity paid
// back is that price times the fast. A NaN anywhere fails its check.
func (a *auditor) checkTrades(trades []trade.Trade) {
	if !a.on() {
		return
	}
	const tol = 1e-9
	for i := range trades {
		tr := &trades[i]
		a.rep.Checks++
		switch {
		case tr.Buyer == tr.Seller:
			a.violate(InvTradePrice, "trade %d: %s is both buyer and seller", i, tr.Buyer)
		case tr.BuyerSpeedup == tr.SellerSpeedup:
			a.violate(InvTradePrice, "trade %d: %s buys from %s at equal speedups %v", i, tr.Buyer, tr.Seller, tr.BuyerSpeedup)
		case !(tr.SellerSpeedup < tr.Price && tr.Price < tr.BuyerSpeedup):
			a.violate(InvTradePrice, "trade %d: %s buys from %s at price %v, outside (%v, %v)",
				i, tr.Buyer, tr.Seller, tr.Price, tr.SellerSpeedup, tr.BuyerSpeedup)
		case !(tr.FastGPUs > 0):
			a.violate(InvTradePrice, "trade %d: %s buys %v fast GPUs from %s", i, tr.Buyer, tr.FastGPUs, tr.Seller)
		case !(math.Abs(tr.SlowGPUs-tr.Price*tr.FastGPUs) <= tol*(1+math.Abs(tr.SlowGPUs))):
			a.violate(InvTradePrice, "trade %d: %s pays %v slow GPUs for %v fast at price %v",
				i, tr.Buyer, tr.SlowGPUs, tr.FastGPUs, tr.Price)
		}
	}
}

// checkExec audits one quantum's execution accounting.
func (a *auditor) checkExec(id job.ID, info RanInfo) {
	if !a.on() {
		return
	}
	const tol = 1e-6
	a.rep.Checks++
	if info.OccupiedSecs > a.quantum+tol {
		a.violate(InvUsefulBound, "job %d occupied %v s > quantum %v s", id, info.OccupiedSecs, a.quantum)
	}
	if info.UsefulSecs > info.OccupiedSecs+tol {
		a.violate(InvUsefulBound, "job %d useful %v s > occupied %v s", id, info.UsefulSecs, info.OccupiedSecs)
	}
	if info.UsefulSecs < 0 || info.OccupiedSecs < 0 {
		a.violate(InvUsefulBound, "job %d negative accounting: useful %v, occupied %v", id, info.UsefulSecs, info.OccupiedSecs)
	}
}

// noteBusy accrues occupied GPU-seconds charged to this round — a
// settled quantum, or a failed migration attempt holding its reserved
// target devices — for the conservation check. A quantum answered after
// its round closed is not this round's time and is not noted.
func (a *auditor) noteBusy(gen gpu.Generation, gangSecs float64) {
	if !a.on() {
		return
	}
	a.busyGen[gen] += gangSecs
}

// checkCompensation audits one user's round of failure-compensation
// accounting: repayment is non-negative, never exceeds the deficit the
// policy was shown, and the deficit evolves exactly as before + lost −
// repaid ≥ 0. Together these make the deficit monotonically drain while
// the user is active and no new losses accrue. The engine calls it in
// user order (deterministic violation order).
func (a *auditor) checkCompensation(u job.UserID, b, l, r, aft float64) {
	if !a.on() {
		return
	}
	const tol = 1e-6
	a.rep.Checks++
	if r < -tol {
		a.violate(InvCompensation, "user %s repaid negative %v GPU-s", u, r)
	}
	if r > b+tol*(1+b) {
		a.violate(InvCompensation, "user %s repaid %v GPU-s exceeds deficit %v", u, r, b)
	}
	want := b + l - r
	if want < 0 {
		want = 0
	}
	if diff := aft - want; diff > tol*(1+want) || diff < -tol*(1+want) {
		a.violate(InvCompensation, "user %s deficit %v, want %v (= %v + %v − %v)", u, aft, want, b, l, r)
	}
	if aft < -tol {
		a.violate(InvCompensation, "user %s negative deficit %v", u, aft)
	}
}

// endRound verifies GPU-second conservation for the round and, in
// strict mode, surfaces the round's first violation as an error.
func (a *auditor) endRound() error {
	if !a.on() {
		return nil
	}
	for g, busy := range a.busyGen { // generation order: the first violation is the same every run
		if busy == 0 {
			continue
		}
		a.rep.Checks++
		gen := gpu.Generation(g)
		bound := float64(a.caps[gen]) * a.quantum
		if busy > bound+1e-6*(1+bound) {
			a.violate(InvConservation, "%v charged %v GPU-s, capacity %v GPU-s", gen, busy, bound)
		}
	}
	if a.mode == AuditStrict && len(a.rep.Violations) > 0 {
		return &AuditError{Violation: a.rep.Violations[0]}
	}
	return nil
}

// report snapshots the accumulated audit state for Result.
func (a *auditor) report() *AuditReport {
	if !a.on() {
		return nil
	}
	rep := a.rep
	rep.Counts = make(map[string]int, len(a.rep.Counts))
	for k, v := range a.rep.Counts {
		rep.Counts[k] = v
	}
	rep.Violations = append([]AuditViolation(nil), a.rep.Violations...)
	return &rep
}
