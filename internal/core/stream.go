package core

import (
	"cmp"
	"slices"

	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/trace"
)

// The engine's event stream: every occurrence of a round is written
// once, as one trace.Record, into s.ev. When the round closes — also on
// an error that ends it — the buffer goes to the sinks: the run's event
// log keeps the logged kinds, an attached Observer derives everything
// it shows from the same slice. Nothing else records.

// emit appends one occurrence to the stream. A logged kind is counted:
// the run's totals (Result.Migrations, TradeCount, Crashes…) are how
// often their kind was recorded. With no observer attached the log is
// the only sink, so the record is written through to it — a burst of
// arrivals then never sizes the buffer — and kinds only an observer
// consumes are dropped.
func (s *Sim) emit(r trace.Record) {
	if k := r.Kind.LogIndex(); k >= 0 {
		s.recorded[k]++
	}
	if s.obs == nil {
		s.log.Append(r)
		return
	}
	s.ev = append(s.ev, r)
}

// Emit records an occurrence of the executor's — the distributed
// coordinator's protocol events — stamped with the engine's time.
func (s *Sim) Emit(r trace.Record) {
	r.At = s.clock.Now()
	s.emit(r)
}

// flush hands the buffered events to the event log and returns them
// for the observer; the buffer is reused from the next emit on.
//
//gflint:noretain
func (s *Sim) flush() []trace.Record {
	evs := s.ev
	s.log.Append(evs...)
	s.ev = s.ev[:0]
	return evs
}

// RoundObs is a policy's handle on the round's instrumentation: it
// times the policy's sub-phases and takes its explanations. A nil
// *RoundObs — an uninstrumented run — does nothing.
type RoundObs struct {
	o *obs.Observer
	// why holds the round's explanations, in the policy's order until
	// the grants — which go in job order — sort it and merge along.
	why  []choice //gflint:noretain reused every round
	next int      // the merge's cursor into why
}

// choice is the policy's half of a placement decision.
type choice struct {
	job           job.ID
	reason        string
	before, after float64
}

// PhaseStart opens a sub-phase of the decision (waterfill, trade).
func (r *RoundObs) PhaseStart(p obs.Phase) {
	if r != nil {
		r.o.PhaseStart(p)
	}
}

// PhaseEnd closes it.
func (r *RoundObs) PhaseEnd(p obs.Phase) {
	if r != nil {
		r.o.PhaseEnd(p)
	}
}

// Explain says how the slot of a job scheduled this round was funded:
// reason is "credit" or "backfill", before and after the user's credit
// on the chosen generation around the choice. The engine completes it
// into the job's decision record once placement has picked devices.
func (r *RoundObs) Explain(id job.ID, reason string, before, after float64) {
	if r != nil {
		r.why = append(r.why, choice{id, reason, before, after})
	}
}

// begin drops what an earlier round's policy explained.
func (r *RoundObs) begin() {
	if r != nil {
		r.why = r.why[:0]
	}
}

// sortChoices readies the round's explanations for reasonFor's merge.
func (r *RoundObs) sortChoices() {
	if r != nil {
		slices.SortFunc(r.why, func(a, b choice) int { return cmp.Compare(a.job, b.job) })
		r.next = 0
	}
}

// reasonFor returns the policy's explanation for id — "policy" when it
// gave none. Calls must come in ascending job order.
func (r *RoundObs) reasonFor(id job.ID) choice {
	for r.next < len(r.why) && r.why[r.next].job < id {
		r.next++ // a choice placement left unplaced
	}
	if r.next < len(r.why) && r.why[r.next].job == id {
		return r.why[r.next]
	}
	return choice{reason: "policy"}
}
