package faults

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/gpu"
	"repro/internal/simclock"
)

// compilePerServer is Compile as it was before the timeline moved into
// shared arrays: one appended slice per server, merged or flattened on
// its own, with the flattening's own boundary slice per server. Its
// spans carry their server, which the span type has gained since.
func compilePerServer(outages []Outage, degradations []Degradation, numServers int) (down, slow [][]span) {
	down, slow = make([][]span, numServers), make([][]span, numServers)
	for _, o := range outages {
		s := int(o.Server)
		if s < 0 || s >= numServers || o.Duration <= 0 {
			continue
		}
		down[s] = append(down[s], span{From: o.At, To: o.At.Add(o.Duration), srv: o.Server})
	}
	for s := range down {
		if in := down[s]; len(in) > 0 {
			sort.Slice(in, func(i, j int) bool { return in[i].From < in[j].From })
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
			down[s] = out
		}
	}
	for _, d := range degradations {
		s := int(d.Server)
		if s < 0 || s >= numServers || d.Duration <= 0 || d.Factor <= 0 || d.Factor >= 1 {
			continue
		}
		slow[s] = append(slow[s], span{From: d.At, To: d.At.Add(d.Duration), Factor: d.Factor, srv: d.Server})
	}
	for s, in := range slow {
		if len(in) == 0 {
			continue
		}
		pts := make([]simclock.Time, 0, 2*len(in))
		for _, sp := range in {
			pts = append(pts, sp.From, sp.To)
		}
		sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
		var out []span
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
			if n := len(out); n > 0 && out[n-1].To == from && out[n-1].Factor == factor {
				out[n-1].To = to
				continue
			}
			out = append(out, span{From: from, To: to, Factor: factor, srv: gpu.ServerID(s)})
		}
		slow[s] = out
	}
	return down, slow
}

// randomSchedule draws n outages and n degradations over servers
// [-1, numServers], so some name no server, with zero and negative
// durations, factors outside (0, 1), and start times on a coarse grid so
// that spans share starts and ends and meet end to end.
func randomSchedule(rng *rand.Rand, n, numServers int) ([]Outage, []Degradation) {
	at := func() simclock.Time { return simclock.Time(50 * rng.Intn(200)) }
	dur := func() simclock.Duration {
		if rng.Intn(10) == 0 {
			return simclock.Duration(-rng.Intn(2) * 50)
		}
		return simclock.Duration(50 * (1 + rng.Intn(30)))
	}
	srv := func() gpu.ServerID { return gpu.ServerID(rng.Intn(numServers+2) - 1) }
	outs := make([]Outage, n)
	degs := make([]Degradation, n)
	for i := range outs {
		outs[i] = Outage{Server: srv(), At: at(), Duration: dur()}
		factor := []float64{0, 0.25, 0.5, 0.5, 0.75, 1, 1.5}[rng.Intn(7)]
		degs[i] = Degradation{Server: srv(), At: at(), Duration: dur(), Factor: factor}
	}
	return outs, degs
}

// TestCompileMatchesPerServerBuild holds Compile to the per-server
// build it replaced, span for span, and checks that every server's
// list is capped at its length, so that an append to one can never
// write into the next server's window. The first schedule has server
// 0's degradations end where server 1's begin, at the same factor: in
// the one array they are adjacent, and must still not merge.
func TestCompileMatchesPerServerBuild(t *testing.T) {
	check := func(trial int, outs []Outage, degs []Degradation, numServers int) {
		t.Helper()
		tl := Compile(outs, degs, numServers)
		down, slow := compilePerServer(outs, degs, numServers)
		for s := 0; s < numServers; s++ {
			for _, c := range []struct {
				what      string
				got, want []span
			}{{"down", tl.down[s], down[s]}, {"slow", tl.slow[s], slow[s]}} {
				if !slices.Equal(c.got, c.want) || (c.got == nil) != (c.want == nil) {
					t.Fatalf("trial %d server %d: %s spans %v, want %v", trial, s, c.what, c.got, c.want)
				}
				if cap(c.got) != len(c.got) {
					t.Fatalf("trial %d server %d: %s list has room %d past its %d spans", trial, s, c.what, cap(c.got)-len(c.got), len(c.got))
				}
			}
		}
	}
	check(-1, []Outage{{Server: 0, At: 0, Duration: 100}, {Server: 1, At: 100, Duration: 100}},
		[]Degradation{{Server: 0, At: 0, Duration: 100, Factor: 0.5}, {Server: 1, At: 100, Duration: 100, Factor: 0.5}}, 2)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		numServers := 1 + rng.Intn(12)
		outs, degs := randomSchedule(rng, rng.Intn(60), numServers)
		check(trial, outs, degs, numServers)
	}
}

// TestCompileAllocsIndependentOfSpans pins what compiling a timeline
// costs: the same allocations over 1,000 and over 10,000 spans — the
// timeline, two tables of per-server windows, the arrays of down spans,
// of degradations and of flattened degradations, and the boundary
// scratch: 7. The per-server build made 1,758 and 4,290 at these sizes,
// on 200 servers. The count is deterministic (it
// is averaged over 50 calls, so that what the collector allocates while
// a call runs rounds away); the ceiling is the measured value and a
// tenth.
func TestCompileAllocsIndependentOfSpans(t *testing.T) {
	const numServers, ceiling = 200, 7.7
	compileAllocs := func(spans int) float64 {
		outs, degs := randomSchedule(rand.New(rand.NewSource(9)), spans/2, numServers)
		return testing.AllocsPerRun(50, func() { Compile(outs, degs, numServers) })
	}
	few, many := compileAllocs(1000), compileAllocs(10000)
	t.Logf("Compile: %.0f allocations over 1,000 spans, %.0f over 10,000", few, many)
	if few != many {
		t.Errorf("Compile makes %.0f allocations over 1,000 spans and %.0f over 10,000", few, many)
	}
	if many > ceiling {
		t.Errorf("Compile makes %.0f allocations, ceiling %v", many, ceiling)
	}
}

// TestSweepAdvanceAllocsNothing pins that a warmed Advance allocates
// nothing: it sorts the touched servers in place and returns the
// transitions in a buffer the sweep keeps. 50 servers go down and come
// back together, so every sample reports 50 transitions. A fresh slice
// and a sort.Slice per call cost 9 allocations.
func TestSweepAdvanceAllocsNothing(t *testing.T) {
	const numServers, period = 50, 200
	var outs []Outage
	for k := 0; k < 1000; k++ {
		for s := numServers - 1; s >= 0; s-- {
			outs = append(outs, Outage{Server: gpu.ServerID(s), At: simclock.Time(k * period), Duration: period / 2})
		}
	}
	sw := NewSweep(Compile(outs, nil, numServers))
	now := simclock.Time(period / 4)
	advance := func() {
		if tr := sw.Advance(now); len(tr) != numServers {
			t.Fatalf("t=%v: %d transitions, want %d", now, len(tr), numServers)
		}
		now = now.Add(period / 2)
	}
	advance() // the buffers reach their size
	if allocs := testing.AllocsPerRun(100, advance); allocs != 0 {
		t.Errorf("a warmed Advance makes %.1f allocations, want 0", allocs)
	}
}
