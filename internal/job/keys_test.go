package job

import (
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

// TestSortByArrivalMatchesStableSort holds SortByArrival to
// slices.SortStableFunc by arrival on specs whose arrivals mostly tie,
// given shuffled, sorted and reversed, empty and single-spec lists
// included: the same specs in the same slots.
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
			want := slices.Clone(in)
			slices.SortStableFunc(want, byArrival)
			got := slices.Clone(in)
			SortByArrival(got)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d: input %v gave %v, want %v", trial, in, got, want)
			}
		}
	}
}
