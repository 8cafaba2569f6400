package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/job"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestJain(t *testing.T) {
	if j := Jain([]float64{1, 1, 1, 1}); !almost(j, 1) {
		t.Errorf("equal values → %v, want 1", j)
	}
	if j := Jain([]float64{1, 0, 0, 0}); !almost(j, 0.25) {
		t.Errorf("one-hot → %v, want 1/n", j)
	}
	if j := Jain(nil); j != 0 {
		t.Errorf("empty → %v", j)
	}
	if j := Jain([]float64{0, 0}); j != 0 {
		t.Errorf("all zero → %v", j)
	}
}

func TestJainProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		anyPos := false
		for i, r := range raw {
			xs[i] = float64(r)
			if r > 0 {
				anyPos = true
			}
		}
		j := Jain(xs)
		if !anyPos {
			return j == 0
		}
		return j > 0 && j <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2, 5})
	if s.N != 5 || !almost(s.Mean, 3) || !almost(s.Median, 3) || !almost(s.Min, 1) || !almost(s.Max, 5) {
		t.Fatalf("Stats = %+v", s)
	}
	if !almost(s.P95, 4.8) {
		t.Errorf("P95 = %v, want 4.8 (interpolated)", s.P95)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Errorf("empty → %+v", z)
	}
	one := Summarize([]float64{7})
	if one.Median != 7 || one.P95 != 7 {
		t.Errorf("singleton → %+v", one)
	}
	// Input must not be mutated.
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("Summarize mutated its input")
	}
}

func TestShareFractions(t *testing.T) {
	fr := ShareFractions(map[job.UserID]float64{"a": 30, "b": 10})
	if !almost(fr["a"], 0.75) || !almost(fr["b"], 0.25) {
		t.Errorf("fractions = %v", fr)
	}
	if len(ShareFractions(map[job.UserID]float64{"a": 0})) != 0 {
		t.Error("zero usage → nonempty fractions")
	}
}

func TestTimeline(t *testing.T) {
	tl := NewTimeline(3600, []job.UserID{"a", "b"})
	tl.Add(0, 0, 10)
	tl.Add(1800, 1, 10)
	tl.Add(3600, 0, 20)
	tl.Add(7300, 1, 5)
	ws := tl.Windows()
	if len(ws) != 3 {
		t.Fatalf("%d windows, want 3", len(ws))
	}
	if !almost(ws[0].ByUser[0], 10) || !almost(ws[0].ByUser[1], 10) {
		t.Errorf("window 0 = %v", ws[0].ByUser)
	}
	if !almost(ws[1].ByUser[0], 20) || ws[1].ByUser[1] != 0 {
		t.Errorf("window 1 = %v", ws[1].ByUser)
	}
	if ws[2].Start != 7200 || ws[2].End != 10800 {
		t.Errorf("window 2 bounds [%v, %v)", ws[2].Start, ws[2].End)
	}
}

// TestTimelineStartsAtFirstWindow: windows run from the one Begin names,
// with no empty prefix back to time zero, and a charge 3.6e22 s in —
// 1e19 hour-wide windows, past the largest int — lands in one window.
func TestTimelineStartsAtFirstWindow(t *testing.T) {
	tl := NewTimeline(3600, []job.UserID{"a"})
	tl.Begin(5*3600 + 10)
	tl.Add(6*3600, 0, 1)
	tl.Add(5*3600+20, 0, 2) // an older charge, as a late answer makes
	ws := tl.Windows()
	if len(ws) != 2 || ws[0].Start != 5*3600 || ws[1].End != 7*3600 {
		t.Fatalf("windows %+v, want [5h, 6h) and [6h, 7h)", ws)
	}
	if ws[0].ByUser[0] != 2 || ws[1].ByUser[0] != 1 {
		t.Errorf("windows hold %v and %v, want 2 and 1", ws[0].ByUser, ws[1].ByUser)
	}

	far := NewTimeline(3600, []job.UserID{"a"})
	const at = 3.6e22
	far.Add(at, 0, 3)
	if ws := far.Windows(); len(ws) != 1 || ws[0].Start != at || ws[0].ByUser[0] != 3 {
		t.Errorf("a charge at %v s: windows %+v, want one starting there holding 3", at, ws)
	}
}

func TestTimelineFractions(t *testing.T) {
	w := Window{ByUser: []float64{30, 0, 10}}
	if fr := w.Fractions(); !almost(fr[0], 0.75) || fr[1] != 0 || !almost(fr[2], 0.25) {
		t.Errorf("Fractions = %v, want [0.75 0 0.25]", fr)
	}
	idle := Window{ByUser: []float64{0, 0}}
	if fr := idle.Fractions(); fr[0] != 0 || fr[1] != 0 {
		t.Errorf("idle Fractions = %v, want zeros", fr)
	}
}

func TestTimelinePanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero width did not panic")
		}
	}()
	NewTimeline(0, nil)
}

func TestUtilization(t *testing.T) {
	u := Utilization{BusyGPUSeconds: 80, CapacityGPUSeconds: 100}
	if !almost(u.Fraction(), 0.8) {
		t.Errorf("Fraction = %v", u.Fraction())
	}
	if (Utilization{}).Fraction() != 0 {
		t.Error("zero capacity → nonzero fraction")
	}
}

func TestSlowdown(t *testing.T) {
	if s := Slowdown(200, 100); !almost(s, 2) {
		t.Errorf("Slowdown = %v", s)
	}
	if !math.IsInf(Slowdown(10, 0), 1) {
		t.Error("zero standalone → not +Inf")
	}
}
