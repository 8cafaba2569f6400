package stride

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/job"
)

// orderSort is Order as it was before it merged sorted piles: the join
// rule, then one sort of the schedulable positions. It is the oracle
// FuzzOrder holds Order to, kept verbatim but for its name.
func orderSort(cands []Candidate, order []int32) []int32 {
	minPass, found := 0.0, false
	for i := range cands {
		if c := &cands[i]; !c.Joins && (!found || c.Pass < minPass) {
			minPass, found = c.Pass, true
		}
	}
	order = order[:0]
	for i := range cands {
		c := &cands[i]
		if c.Joins {
			c.Pass = minPass
		}
		if c.Gang > 0 && c.Tickets > 0 {
			order = append(order, int32(i))
		}
	}
	slices.SortFunc(order, func(a, b int32) int {
		ca, cb := &cands[a], &cands[b]
		switch {
		case ca.Pass != cb.Pass:
			if ca.Pass < cb.Pass {
				return -1
			}
			return 1
		case ca.Gang != cb.Gang:
			return cmp.Compare(cb.Gang, ca.Gang)
		default:
			return cmp.Compare(ca.ID, cb.ID)
		}
	})
	return order
}

// FuzzOrder holds Order to orderSort on random candidate sets: passes
// drawn from a few levels (so passes and gangs tie often), joiners,
// gang 0 and tickets 0 among them, distinct IDs. Each set is offered
// four ways: in priority order, as that order after a round's charging
// (a few sorted runs interleaved, the offer FairPolicy makes), shuffled
// and reversed. The positions and every pass, the joiners' included,
// must come out identical, whether or not Order had to sort.
func FuzzOrder(f *testing.F) {
	f.Add(int64(1), uint16(40), uint8(3), uint8(3))
	f.Add(int64(2), uint16(800), uint8(0), uint8(2))
	f.Add(int64(3), uint16(300), uint8(7), uint8(5))
	f.Add(int64(4), uint16(5), uint8(1), uint8(0))
	f.Add(int64(5), uint16(0), uint8(2), uint8(1))
	f.Add(int64(6), uint16(2000), uint8(200), uint8(12))
	f.Fuzz(func(t *testing.T, seed int64, size uint16, levels, charges uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := int(size) % 2048
		ids := rng.Perm(4 * (n + 1))
		cands := make([]Candidate, n)
		for i := range cands {
			cands[i] = Candidate{
				ID:      job.ID(ids[i]),
				Gang:    []int{0, 1, 2, 4, 4, 8, 8, 16}[rng.Intn(8)],
				Tickets: []float64{0, 0.5, 1, 1, 1, 2}[rng.Intn(6)],
				Pass:    float64(rng.Intn(1+int(levels))) * 90,
				Joins:   rng.Intn(10) == 0,
			}
		}
		sorted := slices.Clone(cands)
		byPos := orderSort(sorted, nil)
		inOrder := make([]Candidate, 0, n)
		for _, at := range byPos {
			inOrder = append(inOrder, sorted[at])
		}
		for i := range sorted { // the unschedulable, after the rest
			if c := sorted[i]; c.Gang <= 0 || c.Tickets <= 0 {
				inOrder = append(inOrder, c)
			}
		}

		// After charging: the jobs that ran advance by gang × one of a few
		// occupied times / tickets, everyone else stays.
		charged := slices.Clone(inOrder)
		occupied := []float64{360, 330, 300, 180, 90, 45, 20, 10}[:1+int(charges)%8]
		for i := range charged {
			if c := &charged[i]; !c.Joins && c.Tickets > 0 && rng.Intn(2) == 0 {
				c.Pass = Charge(c.ID, c.Pass, float64(c.Gang)*occupied[rng.Intn(len(occupied))], c.Tickets)
			}
		}
		shuffled := slices.Clone(cands)
		rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		reversed := slices.Clone(inOrder)
		slices.Reverse(reversed)

		order := make([]int32, 0, rng.Intn(3*n+1)) // a used buffer, dirty and sized anyhow
		for i := 0; i < cap(order); i++ {
			order = append(order, int32(rng.Intn(n+1)-1))
		}
		for _, o := range []struct {
			name  string
			offer []Candidate
		}{{"sorted", inOrder}, {"charged", charged}, {"shuffled", shuffled}, {"reversed", reversed}} {
			name, offer := o.name, o.offer
			got, want := slices.Clone(offer), slices.Clone(offer)
			order = Order(got, order)
			oracle := orderSort(want, nil)
			if !slices.Equal(order, oracle) {
				t.Fatalf("%s offer of %d: Order %v, sort %v", name, n, order, oracle)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s offer of %d: candidates after Order %v, after the sort %v", name, n, got, want)
			}
			if cap(order) < 2*n {
				t.Fatalf("%s offer of %d: the order's room is %d, want 2·%d to hand back", name, n, cap(order), n)
			}
		}
	})
}
