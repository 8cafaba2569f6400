// Package metrics computes the quantities the paper's evaluation
// reports: fairness (share fractions, Jain's index, worst-case share
// error), efficiency (utilization), and job completion time
// statistics, plus a windowed timeline for share-over-time figures.
package metrics

import (
	"math"
	"sort"

	"repro/internal/job"
	"repro/internal/simclock"
)

// Jain returns Jain's fairness index of the values:
// (Σx)² / (n·Σx²), in (0, 1], 1 = perfectly equal. Empty or all-zero
// input returns 0.
func Jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// Stats summarizes a sample.
type Stats struct {
	N                                int
	Mean, Median, P95, P99, Min, Max float64
}

// Summarize computes order statistics of xs (which it does not
// modify). Empty input returns the zero Stats.
func Summarize(xs []float64) Stats {
	if len(xs) == 0 {
		return Stats{}
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	var sum float64
	for _, x := range s {
		sum += x
	}
	return Stats{
		N:      len(s),
		Mean:   sum / float64(len(s)),
		Median: quantile(s, 0.5),
		P95:    quantile(s, 0.95),
		P99:    quantile(s, 0.99),
		Min:    s[0],
		Max:    s[len(s)-1],
	}
}

// quantile interpolates the q-quantile of sorted data.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// ShareFractions normalizes per-user usage to fractions of the total.
// All-zero usage returns an empty map.
func ShareFractions(byUser map[job.UserID]float64) map[job.UserID]float64 {
	var total float64
	for _, u := range job.SortedUsers(byUser) {
		total += byUser[u]
	}
	out := make(map[job.UserID]float64, len(byUser))
	if total <= 0 {
		return out
	}
	for u, v := range byUser {
		out[u] = v / total
	}
	return out
}

// Window is one timeline bucket: usage per user accumulated over
// [Start, End).
type Window struct {
	Start, End simclock.Time
	ByUser     map[job.UserID]float64
}

// Timeline accumulates per-user usage into fixed-width windows for
// share-over-time figures. Add times must be non-decreasing (the
// simulation clock guarantees this).
type Timeline struct {
	width   simclock.Duration
	windows []Window
}

// NewTimeline creates a timeline with the given window width in
// seconds; non-positive widths panic.
func NewTimeline(width simclock.Duration) *Timeline {
	if width <= 0 {
		panic("metrics: non-positive timeline width")
	}
	return &Timeline{width: width}
}

// Add accumulates amount for user u at virtual time at.
func (t *Timeline) Add(at simclock.Time, u job.UserID, amount float64) {
	idx := int(float64(at) / t.width)
	for len(t.windows) <= idx {
		start := simclock.Time(float64(len(t.windows)) * t.width)
		t.windows = append(t.windows, Window{
			Start:  start,
			End:    start.Add(t.width),
			ByUser: make(map[job.UserID]float64),
		})
	}
	t.windows[idx].ByUser[u] += amount
}

// Windows returns the accumulated windows (possibly with empty
// buckets between active periods). Callers must not mutate.
func (t *Timeline) Windows() []Window { return t.windows }

// Utilization is busy capacity over total capacity for some interval.
type Utilization struct {
	BusyGPUSeconds     float64
	CapacityGPUSeconds float64
}

// Fraction returns busy/capacity, 0 when capacity is zero.
func (u Utilization) Fraction() float64 {
	if u.CapacityGPUSeconds <= 0 {
		return 0
	}
	return u.BusyGPUSeconds / u.CapacityGPUSeconds
}

// Slowdown returns JCT divided by the job's standalone runtime — the
// contention penalty a job experienced. Values < 1 are possible on
// faster-than-reference GPUs.
func Slowdown(jct, standalone simclock.Duration) float64 {
	if standalone <= 0 {
		return math.Inf(1)
	}
	return jct / standalone
}
