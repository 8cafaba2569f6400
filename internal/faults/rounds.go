package faults

import (
	"cmp"
	"slices"
	"sort"
)

// RoundInterval is a half-open range of scheduling rounds [From, To).
// The zero value is empty.
type RoundInterval struct {
	From, To int
}

// Empty reports whether the interval covers no round.
func (iv RoundInterval) Empty() bool { return iv.To <= iv.From }

// RoundSet answers "is round r covered?" over a set of round
// intervals, precompiled once into a sorted, merged span list — the
// Timeline/Sweep idea applied to round-indexed schedules (the network
// fault injector keys faults by scheduling round, not simulated
// time). Queries are a binary search, and the compiled form is
// immutable, so one RoundSet may be shared across goroutines.
type RoundSet struct {
	spans []RoundInterval
}

// CompileRounds normalizes ivs (drops empties, sorts, merges
// overlapping and adjacent intervals) into a RoundSet.
func CompileRounds(ivs []RoundInterval) *RoundSet {
	spans := make([]RoundInterval, 0, len(ivs))
	for _, iv := range ivs {
		if !iv.Empty() {
			spans = append(spans, iv)
		}
	}
	if len(spans) == 0 {
		return &RoundSet{}
	}
	slices.SortFunc(spans, func(a, b RoundInterval) int { return cmp.Compare(a.From, b.From) })
	out := spans[:1]
	for _, iv := range spans[1:] {
		last := &out[len(out)-1]
		if iv.From <= last.To {
			if iv.To > last.To {
				last.To = iv.To
			}
			continue
		}
		out = append(out, iv)
	}
	return &RoundSet{spans: out}
}

// Active reports whether round r falls inside any compiled interval.
func (s *RoundSet) Active(r int) bool {
	i := sort.Search(len(s.spans), func(i int) bool { return s.spans[i].To > r })
	return i < len(s.spans) && s.spans[i].From <= r
}
