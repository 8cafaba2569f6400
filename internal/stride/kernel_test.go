package stride

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/job"
)

// mapScheduler is the stride scheduler as it was before the kernel
// moved onto caller-owned slices: passes in a map by job ID, one sort
// key per candidate snapshotted at registration, IDs returned. It is the
// oracle TestKernelMatchesMapScheduler holds the kernel and Scheduler
// to, kept verbatim but for names.
type mapScheduler struct {
	mode Mode
	pass map[job.ID]float64
	keys []ranked //gflint:noretain scratch of rank
}

type ranked struct {
	pass  float64
	gang  int
	id    job.ID
	joins bool
}

func (s *mapScheduler) Select(cands []Candidate, capacity int) []job.ID {
	if capacity <= 0 || len(cands) == 0 {
		return nil
	}
	keys := s.rank(cands)
	n := 0
	remaining := capacity
	for _, k := range keys {
		if remaining == 0 {
			break
		}
		if k.gang > remaining {
			if s.mode == NaiveBlocking {
				break
			}
			continue
		}
		keys[n] = k
		n++
		remaining -= k.gang
	}
	if n == 0 {
		return nil
	}
	selected := keys[:n]
	slices.SortFunc(selected, func(a, b ranked) int {
		if a.gang != b.gang {
			return cmp.Compare(b.gang, a.gang)
		}
		return cmp.Compare(a.id, b.id)
	})
	return rankedIDs(selected)
}

func (s *mapScheduler) Order(cands []Candidate) []job.ID {
	if len(cands) == 0 {
		return nil
	}
	return rankedIDs(s.rank(cands))
}

//gflint:noretain
func (s *mapScheduler) rank(cands []Candidate) []ranked {
	keys := s.keys[:0]
	minPass, found := 0.0, false
	for _, c := range cands {
		p, ok := s.pass[c.ID]
		if ok && (!found || p < minPass) {
			minPass, found = p, true
		}
		keys = append(keys, ranked{pass: p, gang: c.Gang, id: c.ID, joins: !ok})
	}
	n := 0
	for i, c := range cands {
		k := keys[i]
		if k.joins {
			k.pass = minPass
			s.pass[k.id] = minPass
		}
		if c.Gang > 0 && c.Tickets > 0 {
			keys[n] = k
			n++
		}
	}
	s.keys = keys
	keys = keys[:n]
	slices.SortFunc(keys, func(a, b ranked) int {
		switch {
		case a.pass != b.pass:
			if a.pass < b.pass {
				return -1
			}
			return 1
		case a.gang != b.gang:
			return cmp.Compare(b.gang, a.gang)
		default:
			return cmp.Compare(a.id, b.id)
		}
	})
	return keys
}

func rankedIDs(keys []ranked) []job.ID {
	ids := make([]job.ID, len(keys))
	for i, k := range keys {
		ids[i] = k.id
	}
	return ids
}

func (s *mapScheduler) Charge(id job.ID, gpuSeconds, tickets float64) {
	if _, ok := s.pass[id]; !ok {
		panic(fmt.Sprintf("stride: Charge for unknown job %d", id))
	}
	if tickets <= 0 {
		panic(fmt.Sprintf("stride: Charge job %d with tickets %v", id, tickets))
	}
	if gpuSeconds < 0 {
		panic(fmt.Sprintf("stride: Charge job %d with negative resources", id))
	}
	s.pass[id] += gpuSeconds / tickets
}

// TestKernelMatchesMapScheduler drives three implementations with the
// same rounds and wants the same answers bit for bit: the map-based
// oracle above, Scheduler, and the kernel itself (Order, Select, Charge)
// over candidates carrying passes the test keeps, the way FairPolicy
// keeps them on its records. Each round offers a random candidate set —
// jobs joining, gang 0 and tickets 0 among them, passes and gangs equal
// often, capacity 0 now and then — in a different shuffled order to each
// implementation, orders or selects in either mode, charges what came
// out and sometimes forgets a job. After every round the orders or
// selections and every pass must agree.
func TestKernelMatchesMapScheduler(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		mode := Mode(trial % 2)
		oracle := &mapScheduler{mode: mode, pass: map[job.ID]float64{}}
		sched := New(mode)
		passes := map[job.ID]float64{} // the kernel's, kept by the test
		pool := 1 + rng.Intn(24)
		gangOf := make([]int, pool+1)
		ticketsOf := make([]float64, pool+1)
		for id := 1; id <= pool; id++ {
			gangOf[id] = []int{0, 1, 1, 2, 2, 4, 8}[rng.Intn(7)]
			ticketsOf[id] = []float64{0, 1, 1, 2, 3}[rng.Intn(5)]
		}
		var order []int32
		var cands []Candidate
		for round := 0; round < 40; round++ {
			var offer []Candidate
			for id := 1; id <= pool; id++ {
				if rng.Intn(4) > 0 {
					offer = append(offer, Candidate{ID: job.ID(id), Gang: gangOf[id], Tickets: ticketsOf[id]})
				}
			}
			shuffle := func() []Candidate {
				c := slices.Clone(offer)
				rng.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
				return c
			}
			// A joiner is offered with a NaN pass: the kernel ignores it, and
			// one still NaN afterwards was not joined.
			cands = cands[:0]
			for _, c := range shuffle() {
				p, ok := passes[c.ID]
				if !ok {
					p = math.NaN()
				}
				c.Pass, c.Joins = p, !ok
				cands = append(cands, c)
			}
			selecting := rng.Intn(2) == 0
			capacity := rng.Intn(12)
			var want, wrapped []job.ID
			if selecting {
				want = oracle.Select(shuffle(), capacity)
				wrapped = sched.Select(shuffle(), capacity)
				order = Select(mode, cands, capacity, order)
			} else {
				want = oracle.Order(shuffle())
				wrapped = sched.Order(shuffle())
				order = Order(cands, order)
			}
			for _, c := range cands {
				if c.Joins && !math.IsNaN(c.Pass) {
					passes[c.ID] = c.Pass
				}
			}
			got := make([]job.ID, len(order))
			for i, at := range order {
				got[i] = cands[at].ID
			}
			what := fmt.Sprintf("trial %d (%v) round %d, select %v capacity %d", trial, mode, round, selecting, capacity)
			if !slices.Equal(got, want) || !slices.Equal(wrapped, want) {
				t.Fatalf("%s: kernel %v, Scheduler %v, map oracle %v", what, got, wrapped, want)
			}
			// Charge what came out, in amounts that keep passes equal often.
			for _, id := range want {
				if tk := ticketsOf[id]; tk > 0 {
					res := float64(gangOf[id] * 60 * rng.Intn(3))
					oracle.Charge(id, res, tk)
					sched.Charge(id, res, tk)
					passes[id] = Charge(id, passes[id], res, tk)
				}
			}
			if rng.Intn(5) == 0 {
				id := job.ID(1 + rng.Intn(pool))
				delete(oracle.pass, id)
				sched.Remove(id)
				delete(passes, id)
			}
			if len(oracle.pass) != len(passes) || sched.Len() != len(passes) {
				t.Fatalf("%s: %d passes in the oracle, %d in Scheduler, %d kept", what, len(oracle.pass), sched.Len(), len(passes))
			}
			for id, p := range oracle.pass {
				if kp, ok := passes[id]; !ok || kp != p || sched.Pass(id) != p {
					t.Fatalf("%s: job %d pass: oracle %v, Scheduler %v, kernel %v (%v)", what, id, p, sched.Pass(id), kp, ok)
				}
			}
		}
	}
}
