package job

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/simclock"
)

func TestSortedUsers(t *testing.T) {
	m := map[UserID]int{"carol": 1, "alice": 2, "bob": 3}
	got := SortedUsers(m)
	if len(got) != len(m) || !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("SortedUsers = %v, want all 3 keys ascending", got)
	}
	for _, u := range got {
		if _, ok := m[u]; !ok {
			t.Fatalf("SortedUsers returned foreign key %q", u)
		}
	}
	if out := SortedUsers(map[UserID]struct{}{}); len(out) != 0 {
		t.Fatalf("empty map gave %v", out)
	}
}

func TestSortedIDs(t *testing.T) {
	m := map[ID]string{9: "", 1: "", 5: ""}
	got := SortedIDs(m)
	want := []ID{1, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("SortedIDs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortedIDs = %v, want %v", got, want)
		}
	}
}

// sameAsStableSort sorts a copy of in with SortByArrival and fails
// unless it holds, slot by slot, what slices.SortStableFunc by arrival
// gives. The specs' IDs are their input positions, so two specs whose
// arrivals compare equal (+0 and −0 among them) are told apart.
func sameAsStableSort(t *testing.T, in []Spec) {
	t.Helper()
	want := slices.Clone(in)
	slices.SortStableFunc(want, func(a, b Spec) int { return a.Arrival.Compare(b.Arrival) })
	got := slices.Clone(in)
	SortByArrival(got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("n=%d: slot %d holds job %d at %v, want job %d at %v",
				len(in), i, got[i].ID, got[i].Arrival, want[i].ID, want[i].Arrival)
		}
	}
}

// specsAt numbers one spec per arrival, in order.
func specsAt(at []float64) []Spec {
	specs := make([]Spec, len(at))
	for i, a := range at {
		specs[i] = Spec{ID: ID(i), Arrival: simclock.Time(a)}
	}
	return specs
}

// edgeArrivals are the float64 values a bit-level key could get wrong:
// the two zeros (which tie), subnormals of both signs, the extremes
// and values that differ only in the last bit of the mantissa.
var edgeArrivals = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	2 * math.SmallestNonzeroFloat64, 0x1p-1022, // and the smallest normal
	math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1),
	1, math.Nextafter(1, 2), math.Nextafter(1, 0), -1, 60, 3600, 1e9,
}

// TestSortByArrivalMatchesStableSort holds SortByArrival to
// slices.SortStableFunc by arrival: on specs whose arrivals mostly tie,
// given shuffled, sorted and reversed, empty and single-spec lists
// included; and at 5,000 and more specs on random, all-equal, reversed
// and edge-value arrivals and on concatenated sorted runs, the shape
// workload.Generate hands it (each user's arrivals in order, user
// after user).
func TestSortByArrivalMatchesStableSort(t *testing.T) {
	byArrival := func(a, b Spec) int { return a.Arrival.Compare(b.Arrival) }
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		specs := make([]Spec, rng.Intn(70))
		grid := 1 + rng.Intn(8) // distinct arrival times: 1 is all ties
		for i := range specs {
			specs[i] = Spec{ID: ID(i + 1), Arrival: simclock.Time(rng.Intn(grid)) * 60}
		}
		rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
		sorted := slices.Clone(specs)
		slices.SortStableFunc(sorted, byArrival)
		reversed := slices.Clone(sorted)
		slices.Reverse(reversed)
		for _, in := range [][]Spec{specs, sorted, reversed} {
			sameAsStableSort(t, in)
		}
	}

	const n = 5000
	at := make([]float64, n)
	for i := range at {
		at[i] = rng.ExpFloat64() * 3600 * 24
	}
	sameAsStableSort(t, specsAt(at)) // random, no ties
	for i := range at {
		at[i] = float64(rng.Intn(40)) * 60 // heavy ties
	}
	sameAsStableSort(t, specsAt(at))
	for i := range at {
		at[i] = 42
	}
	sameAsStableSort(t, specsAt(at)) // all equal
	for i := range at {
		at[i] = float64(n - i)
	}
	sameAsStableSort(t, specsAt(at)) // reversed
	for i := range at {
		at[i] = edgeArrivals[rng.Intn(len(edgeArrivals))]
	}
	sameAsStableSort(t, specsAt(at)) // edge values, mostly ties
	for i := range at {
		at[i] = math.Float64frombits(rng.Uint64())
		if math.IsNaN(at[i]) {
			at[i] = 0
		}
	}
	sameAsStableSort(t, specsAt(at)) // every bit pattern but NaN

	// Concatenated sorted runs: 200 users × 40 Poisson arrivals, as
	// Generate draws them, then 400 users × 20 with shared batch
	// arrivals at 0 before each run.
	for _, shape := range []struct{ users, per, batch int }{{200, 40, 0}, {400, 20, 2}} {
		at = at[:0]
		for u := 0; u < shape.users; u++ {
			now := 0.0
			for j := 0; j < shape.per; j++ {
				if j < shape.batch {
					at = append(at, 0)
					continue
				}
				now += rng.ExpFloat64() * 3600
				at = append(at, now)
			}
		}
		sameAsStableSort(t, specsAt(at))
	}
}

// FuzzSortByArrival holds SortByArrival to slices.SortStableFunc by
// arrival on fuzzed arrivals. Each input byte below 0x80 picks an edge
// value (edgeArrivals) and any other takes the next 8 bytes as a raw
// float64 (NaN, which no valid spec carries, is skipped); runs > 0
// cuts the list into runs%16+1 pieces and sorts each, the per-user
// shape workload.Generate produces.
func FuzzSortByArrival(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 2, 3}, uint8(0))
	f.Add([]byte{6, 7, 8, 9, 0, 1, 10, 11, 12}, uint8(3))
	f.Add([]byte{0xff, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0x80, 1, 2, 3, 4, 5, 6, 7, 8}, uint8(1))
	f.Add(bytes.Repeat([]byte{14, 13, 12, 11, 1, 0}, 200), uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, runs uint8) {
		var at []float64
		for len(data) > 0 && len(at) < 1<<12 {
			b := data[0]
			data = data[1:]
			if b < 0x80 {
				at = append(at, edgeArrivals[int(b)%len(edgeArrivals)])
				continue
			}
			if len(data) < 8 {
				break
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
			if !math.IsNaN(v) {
				at = append(at, v)
			}
		}
		if runs > 0 {
			pieces := int(runs)%16 + 1
			for p := 0; p < pieces; p++ {
				slices.SortStableFunc(at[p*len(at)/pieces:(p+1)*len(at)/pieces], func(a, b float64) int {
					return simclock.Time(a).Compare(simclock.Time(b))
				})
			}
		}
		sameAsStableSort(t, specsAt(at))
	})
}
