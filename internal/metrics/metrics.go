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
// [Start, End), by position in the timeline's users.
type Window struct {
	Start, End simclock.Time
	ByUser     []float64
}

// Total sums the window's usage in user order.
func (w *Window) Total() float64 {
	var total float64
	for _, v := range w.ByUser {
		total += v
	}
	return total
}

// Fractions returns each user's fraction of the window's usage, by
// position; all zero for an idle window.
func (w *Window) Fractions() []float64 {
	out := make([]float64, len(w.ByUser))
	if total := w.Total(); total > 0 {
		for i, v := range w.ByUser {
			out[i] = v / total
		}
	}
	return out
}

// Timeline accumulates per-user usage into fixed-width windows for
// share-over-time figures. Windows are aligned to multiples of the width
// and run from the first one Begin or Add names, with empty windows
// between active periods; none before it. Times must not precede that
// first window.
type Timeline struct {
	width   simclock.Duration
	users   []job.UserID
	begun   bool
	first   float64 // the first window's start over width, once begun
	windows []Window
}

// NewTimeline creates a timeline with the given window width in
// seconds over users, whose positions index every Window's ByUser;
// non-positive widths panic.
func NewTimeline(width simclock.Duration, users []job.UserID) *Timeline {
	if width <= 0 {
		panic("metrics: non-positive timeline width")
	}
	return &Timeline{width: width, users: users}
}

// Users returns the users whose positions index Window.ByUser. Callers
// must not mutate.
func (t *Timeline) Users() []job.UserID { return t.users }

// Begin makes the window holding at the first, unless one is already.
func (t *Timeline) Begin(at simclock.Time) {
	if !t.begun {
		t.begun, t.first = true, math.Floor(float64(at)/t.width)
	}
}

// Add accumulates amount for the user at position u at virtual time at.
// The window is counted from the first, so a late clock allocates no
// prefix.
func (t *Timeline) Add(at simclock.Time, u int, amount float64) {
	t.Begin(at)
	k := math.Floor(float64(at)/t.width) - t.first
	for float64(len(t.windows)) <= k {
		start := simclock.Time((t.first + float64(len(t.windows))) * t.width)
		t.windows = append(t.windows, Window{
			Start:  start,
			End:    start.Add(t.width),
			ByUser: make([]float64, len(t.users)),
		})
	}
	t.windows[int(k)].ByUser[u] += amount
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
