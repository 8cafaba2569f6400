package core

import (
	"slices"

	"repro/internal/job"
	"repro/internal/simclock"
)

// eventCursor is the engine's event queue: the time-ordered external
// event streams (job arrivals, operator ticket changes) behind
// monotone pop cursors. Both streams are sorted once at construction,
// so advancing to a round's timestamp costs O(1) per event popped —
// strictly better than the O(log n) a heap would give, because the
// streams are known ahead of time and never receive out-of-order
// inserts. Fault transitions, the third external stream, live in
// faults.Sweep, which keeps its own sorted boundary list (see
// Sweep.Advance); the three cursors together mean a round's event
// processing never scans a whole stream.
//
// Idle-quantum skipping (Sim.Run) deliberately wakes only for the
// next ARRIVAL, not for ticket changes or fault transitions: with no
// active jobs there is nothing to schedule, charge, or crash, so
// those events are observationally idempotent until the next arrival
// — applying them at the first round after the gap produces
// byte-identical output to running empty rounds through them. The
// cursors make that catch-up O(events in the gap), not O(rounds
// skipped).
type eventCursor struct {
	specs    []job.Spec // sorted by arrival, stable
	nextSpec int

	changes    []TicketChange // sorted by At, stable
	nextChange int
}

// newEventCursor copies and stably sorts both streams. Among equal
// timestamps config order stands — for jobs, the order of specs (user
// order, then each user's own draw order, for a generated workload) —
// which is part of the seed contract, since admission order decides
// job processing order. The specs go through job.SortByArrival; a
// generated workload arrives in order already, which costs that sort
// one scan.
func newEventCursor(specs []job.Spec, changes []TicketChange) *eventCursor {
	e := &eventCursor{
		specs:   make([]job.Spec, len(specs)),
		changes: make([]TicketChange, len(changes)),
	}
	copy(e.specs, specs)
	job.SortByArrival(e.specs)
	copy(e.changes, changes)
	slices.SortStableFunc(e.changes, func(a, b TicketChange) int { return a.At.Compare(b.At) })
	return e
}

// nextArrival returns the next unadmitted job's arrival time.
func (e *eventCursor) nextArrival() (simclock.Time, bool) {
	if e.nextSpec >= len(e.specs) {
		return 0, false
	}
	return e.specs[e.nextSpec].Arrival, true
}

// popArrivalsDue returns every spec with Arrival ≤ now, in arrival
// order — a view of the cursor's sorted specs — advancing the cursor
// past them.
func (e *eventCursor) popArrivalsDue(now simclock.Time) []job.Spec {
	from := e.nextSpec
	for e.nextSpec < len(e.specs) && e.specs[e.nextSpec].Arrival <= now {
		e.nextSpec++
	}
	return e.specs[from:e.nextSpec]
}

// popTicketsDue hands every ticket change with At ≤ now to fn, in
// time order, advancing the cursor past them.
func (e *eventCursor) popTicketsDue(now simclock.Time, fn func(TicketChange)) {
	for e.nextChange < len(e.changes) && e.changes[e.nextChange].At <= now {
		fn(e.changes[e.nextChange])
		e.nextChange++
	}
}

// pendingCount is the number of jobs not yet admitted.
func (e *eventCursor) pendingCount() int {
	return len(e.specs) - e.nextSpec
}
