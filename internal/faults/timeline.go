package faults

import (
	"cmp"
	"slices"

	"repro/internal/gpu"
	"repro/internal/simclock"
)

// span is one half-open interval [From, To) on the simulated clock, on
// one server.
type span struct {
	From, To simclock.Time
	Factor   float64 // degradation factor; unused (0) for down spans
	srv      gpu.ServerID
}

// Timeline is the compiled form of a fault schedule: per-server sorted,
// merged interval lists. Compiling once at simulation start replaces
// the old per-round rescan of the raw failure list (see
// BenchmarkDownRescan vs BenchmarkTimelineSweep) and gives the engine
// O(1)-amortized queries through a Sweep cursor. Each server's list is a
// window, capped by a full slice expression, into one array of down
// spans or one of flattened degradations, so a timeline costs the same
// few allocations whatever its servers and spans.
type Timeline struct {
	down  [][]span // indexed by server ID; nil for a server without spans
	slow  [][]span
	edges int // span edges over both, what NewSweep's boundary list holds
}

// Compile builds a Timeline for servers 0..numServers-1. Outages on
// unknown servers are ignored (declared schedules are validated
// upstream). Overlapping or adjacent down spans per server are merged;
// overlapping degradations are flattened to disjoint spans keeping the
// minimum (worst) factor. The spans are sorted by server, then start,
// into one array; each server's run is merged in place, or flattened
// onto a second array, and becomes that server's window. Only the two
// tables of windows are as long as the cluster.
func Compile(outages []Outage, degradations []Degradation, numServers int) *Timeline {
	tl := &Timeline{
		down: make([][]span, numServers),
		slow: make([][]span, numServers),
	}
	known := func(s gpu.ServerID) bool { return s >= 0 && int(s) < numServers }

	down := make([]span, 0, len(outages))
	for _, o := range outages {
		if known(o.Server) && o.Duration > 0 {
			down = append(down, span{From: o.At, To: o.At.Add(o.Duration), srv: o.Server})
		}
	}
	eachServer(down, func(run []span) {
		merged := mergeSpans(run)
		tl.down[run[0].srv] = merged[:len(merged):len(merged)]
		tl.edges += 2 * len(merged)
	})

	in := make([]span, 0, len(degradations))
	for _, d := range degradations {
		if known(d.Server) && d.Duration > 0 && d.Factor > 0 && d.Factor < 1 {
			in = append(in, span{From: d.At, To: d.At.Add(d.Duration), Factor: d.Factor, srv: d.Server})
		}
	}
	// k spans have at most 2k boundary points, so they flatten to at
	// most 2k−1 spans: slow never outgrows its array.
	slow := make([]span, 0, 2*len(in))
	pts := make([]simclock.Time, 0, 2*len(in))
	eachServer(in, func(run []span) {
		lo := len(slow)
		slow, pts = flattenDegradations(slow, run, pts)
		if hi := len(slow); hi > lo {
			tl.slow[run[0].srv] = slow[lo:hi:hi]
			tl.edges += 2 * (hi - lo)
		}
	})
	return tl
}

// eachServer sorts spans by server, then start, and calls f with each
// server's run.
func eachServer(spans []span, f func(run []span)) {
	slices.SortFunc(spans, func(a, b span) int {
		if c := cmp.Compare(a.srv, b.srv); c != 0 {
			return c
		}
		return cmp.Compare(a.From, b.From)
	})
	for lo := 0; lo < len(spans); {
		hi := lo + 1
		for hi < len(spans) && spans[hi].srv == spans[lo].srv {
			hi++
		}
		f(spans[lo:hi])
		lo = hi
	}
}

// mergeSpans merges overlapping/adjacent spans, sorted by start, in
// place and returns the merged prefix of in, which is not empty. The
// merge is the spans' union, so the order the sort left equal starts in
// does not show.
func mergeSpans(in []span) []span {
	out := in[:1]
	for _, sp := range in[1:] {
		last := &out[len(out)-1]
		if sp.From <= last.To {
			if sp.To > last.To {
				last.To = sp.To
			}
			continue
		}
		out = append(out, sp)
	}
	return out
}

// flattenDegradations appends to out the disjoint sorted spans that in,
// one server's possibly overlapping factored spans, flatten to, each
// carrying the minimum factor over it. pts is the boundary points'
// scratch, returned for the next call.
func flattenDegradations(out, in []span, pts []simclock.Time) ([]span, []simclock.Time) {
	// Collect boundary points, then for each elementary interval take
	// the min factor over covering spans. Span counts per server are
	// small; the O(n²) scan keeps the code simple and is compile-time
	// only.
	pts = pts[:0]
	for _, sp := range in {
		pts = append(pts, sp.From, sp.To)
	}
	slices.Sort(pts)
	first := len(out)
	for i := 0; i+1 < len(pts); i++ {
		from, to := pts[i], pts[i+1]
		if to <= from {
			continue
		}
		factor := 1.0
		for _, sp := range in {
			if sp.From <= from && to <= sp.To && sp.Factor < factor {
				factor = sp.Factor
			}
		}
		if factor >= 1 {
			continue
		}
		if n := len(out); n > first && out[n-1].To == from && out[n-1].Factor == factor {
			out[n-1].To = to
			continue
		}
		out = append(out, span{From: from, To: to, Factor: factor, srv: in[0].srv})
	}
	return out, pts
}

// Sweep is a monotone cursor over a Timeline. The engine samples server
// state once per round boundary with strictly increasing timestamps.
// A precomputed global list of span boundaries (every From and To,
// sorted by time) drives each sample: Advance pops the boundaries that
// became due, and only the touched servers are re-examined — a server
// whose spans have no boundary in (lastTime, t] cannot have changed
// state. A full-horizon run therefore costs O(boundaries) total,
// independent of both the round count and the server count, where the
// previous implementation walked every server's cursor every round.
// Sampling at round boundaries keeps the semantics of the original
// rescan: an outage strictly inside a quantum (starting and ending
// between two samples) is invisible.
type Sweep struct {
	tl       *Timeline
	downIdx  []int
	slowIdx  []int
	down     gpu.ServerSet
	factor   []float64
	lastTime simclock.Time
	started  bool

	// boundaries is the merged, time-sorted list of every span edge;
	// evIdx is the pop cursor. touched and out are scratch for one
	// Advance, out the transitions it returns.
	boundaries []boundary
	evIdx      int
	touched    []int32
	out        []Transition
}

// boundary is one span edge: at this time, this server may change
// state.
type boundary struct {
	at  simclock.Time
	srv int32
}

// NewSweep creates a cursor positioned before time zero.
func NewSweep(tl *Timeline) *Sweep {
	n := len(tl.down)
	sw := &Sweep{
		tl:      tl,
		downIdx: make([]int, n),
		slowIdx: make([]int, n),
		factor:  make([]float64, n),
	}
	for i := range sw.factor {
		sw.factor[i] = 1
	}
	sw.boundaries = make([]boundary, 0, tl.edges)
	for s := 0; s < n; s++ {
		for _, sp := range tl.down[s] {
			sw.boundaries = append(sw.boundaries, boundary{sp.From, int32(s)}, boundary{sp.To, int32(s)})
		}
		for _, sp := range tl.slow[s] {
			sw.boundaries = append(sw.boundaries, boundary{sp.From, int32(s)}, boundary{sp.To, int32(s)})
		}
	}
	slices.SortFunc(sw.boundaries, func(a, b boundary) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.srv, b.srv)
	})
	return sw
}

// Transition describes one server changing state between two samples.
type Transition struct {
	Server gpu.ServerID
	Down   bool    // new down state (down / recovered)
	Slow   bool    // true when this is a degradation transition
	Factor float64 // new factor (1 = healthy) when Slow
}

// Advance moves the cursor to time t (must be ≥ the previous sample)
// and returns the state transitions since the last sample, in server-ID
// order with down transitions before degradation transitions per
// server. The first call reports every server that is already down or
// degraded at t. The slice is the sweep's own, good until the next
// Advance; nil when nothing changed.
//
//gflint:noretain
func (sw *Sweep) Advance(t simclock.Time) []Transition {
	if sw.started && t < sw.lastTime {
		panic("faults: Sweep.Advance called with decreasing time")
	}
	sw.started = true
	sw.lastTime = t

	// Pop the boundaries that became due; only their servers can have
	// changed state since the last sample. A span active at the very
	// first sample is covered too: its From edge is ≤ t, so its server
	// is touched.
	touched := sw.touched[:0]
	for sw.evIdx < len(sw.boundaries) && sw.boundaries[sw.evIdx].at <= t {
		touched = append(touched, sw.boundaries[sw.evIdx].srv)
		sw.evIdx++
	}
	sw.touched = touched
	if len(touched) == 0 {
		return nil
	}
	slices.Sort(touched)

	// Re-examine touched servers in ascending ID order, emitting the
	// down transition before the degradation transition per server —
	// exactly the order of the old all-server scan.
	out := sw.out[:0]
	var last int32 = -1
	for _, s32 := range touched {
		if s32 == last {
			continue
		}
		last = s32
		s := int(s32)
		sid := gpu.ServerID(s)
		if down := sw.seekDown(s, t); down != sw.down.Has(sid) {
			if down {
				sw.down.Add(sid)
			} else {
				sw.down.Remove(sid)
			}
			out = append(out, Transition{Server: sid, Down: down})
		}
		f := sw.seekSlow(s, t)
		if f != sw.factor[s] {
			sw.factor[s] = f
			out = append(out, Transition{Server: sid, Slow: true, Factor: f})
		}
	}
	sw.out = out
	if len(out) == 0 {
		return nil
	}
	return out
}

func (sw *Sweep) seekDown(s int, t simclock.Time) bool {
	spans := sw.tl.down[s]
	for sw.downIdx[s] < len(spans) && spans[sw.downIdx[s]].To <= t {
		sw.downIdx[s]++
	}
	i := sw.downIdx[s]
	return i < len(spans) && spans[i].From <= t
}

func (sw *Sweep) seekSlow(s int, t simclock.Time) float64 {
	spans := sw.tl.slow[s]
	for sw.slowIdx[s] < len(spans) && spans[sw.slowIdx[s]].To <= t {
		sw.slowIdx[s]++
	}
	i := sw.slowIdx[s]
	if i < len(spans) && spans[i].From <= t {
		return spans[i].Factor
	}
	return 1
}

// Down is the set of servers down at the last Advance time: the sweep's
// own, which Advance updates in place.
//
//gflint:noretain
func (sw *Sweep) Down() *gpu.ServerSet { return &sw.down }

// Factor reports the sampled degradation factor of server sid at the
// last Advance time (1 = healthy).
func (sw *Sweep) Factor(sid gpu.ServerID) float64 {
	if int(sid) < 0 || int(sid) >= len(sw.factor) {
		return 1
	}
	return sw.factor[sid]
}
