package fairshare

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/job"
)

// computeMap is the map-based water-fill WaterFill replaced, kept as the
// oracle its bits are held to: the active users collected from the map,
// sorted by ID, and filled over a shrinking active list.
func computeMap(tickets, demand map[job.UserID]float64, capacity float64) map[job.UserID]float64 {
	shares := make(map[job.UserID]float64, len(demand))
	if capacity <= eps {
		return shares
	}
	type user struct {
		id   job.UserID
		t, d float64
	}
	var active []user
	for _, id := range job.SortedUsers(demand) {
		if d, t := demand[id], tickets[id]; d > eps && t > eps {
			active = append(active, user{id, t, d})
		}
	}
	remaining, used := capacity, 0.0
	for len(active) > 0 && remaining > eps {
		var ticketSum float64
		for _, u := range active {
			ticketSum += u.t
		}
		capped := false
		next := active[:0]
		for _, u := range active {
			if u.d <= remaining*u.t/ticketSum+eps {
				shares[u.id] += u.d
				used += u.d
				capped = true
			} else {
				next = append(next, u)
			}
		}
		if !capped {
			for _, u := range next {
				shares[u.id] += remaining * u.t / ticketSum
			}
			break
		}
		remaining = capacity - used
		active = next
	}
	return shares
}

// FuzzWaterFill holds WaterFill, through Compute, to the map-based
// oracle bit for bit — same users reached, same shares — and to the
// water-fill's properties: 0 ≤ share ≤ demand, Σ shares = min(capacity,
// Σ demand of the users holding tickets), and every user left below
// their demand is paid in proportion to their tickets. Inputs cover
// ticket ratios up to 1e±9, zero capacity, zero-demand and zero-ticket
// users, capacity running out mid-fill, and maps built in shuffled
// order.
func FuzzWaterFill(f *testing.F) {
	for _, seed := range []struct {
		seed           int64
		n, cap, spread uint8
	}{
		{1, 3, 0, 0}, {2, 8, 1, 9}, {3, 16, 2, 4}, {4, 24, 3, 9}, {5, 1, 1, 0},
		{6, 12, 1, 2}, {7, 20, 3, 7}, {8, 5, 2, 9}, {9, 30, 1, 9}, {10, 2, 3, 1},
	} {
		f.Add(seed.seed, seed.n, seed.cap, seed.spread)
	}
	f.Fuzz(func(t *testing.T, seed int64, nUsers, capKind, spread uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nUsers)%32
		ids := make([]job.UserID, n)
		tk := make([]float64, n)
		dm := make([]float64, n)
		var demandSum float64
		for i := range ids {
			ids[i] = job.UserID(strings.Repeat("u", 1+rng.Intn(3)) + string(rune('a'+i)))
			switch rng.Intn(8) {
			case 0: // no tickets
			default:
				tk[i] = math.Pow(10, float64(spread%10)*(2*rng.Float64()-1))
			}
			switch rng.Intn(8) {
			case 0: // no demand
			case 1:
				dm[i] = rng.Float64()
			default:
				dm[i] = float64(1 + rng.Intn(40))
			}
			if tk[i] > eps {
				demandSum += dm[i]
			}
		}
		var capacity float64
		switch capKind % 4 {
		case 0: // zero capacity
		case 1: // runs out mid-fill
			capacity = demandSum * rng.Float64()
		case 2: // more than is asked for
			capacity = demandSum + 1 + float64(rng.Intn(10))
		default:
			capacity = float64(rng.Intn(200))
		}
		tickets := make(map[job.UserID]float64, n)
		demand := make(map[job.UserID]float64, n)
		for _, i := range rng.Perm(n) {
			tickets[ids[i]], demand[ids[i]] = tk[i], dm[i]
		}

		got, want := Compute(tickets, demand, capacity), computeMap(tickets, demand, capacity)
		if len(got) != len(want) {
			t.Fatalf("reached %d users, the oracle %d: %v vs %v", len(got), len(want), got, want)
		}
		for u, w := range want {
			if g, ok := got[u]; !ok || math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("user %s: share %v (reached %v), the oracle's %v", u, g, ok, w)
			}
		}

		var sum float64
		rate := -1.0 // share per ticket of the users left below their demand
		for _, u := range job.SortedUsers(got) {
			s := got[u]
			if s < 0 || s > demand[u] {
				t.Fatalf("user %s: share %v outside [0, demand %v]", u, s, demand[u])
			}
			sum += s
			if s < demand[u] {
				r := s / tickets[u]
				if rate < 0 {
					rate = r
				} else if math.Abs(r-rate) > 1e-9*rate {
					t.Fatalf("user %s below demand at %v per ticket, another at %v", u, r, rate)
				}
			}
		}
		if want := math.Min(capacity, demandSum); capacity > eps && math.Abs(sum-want) > 1e-6*(1+want) {
			t.Fatalf("Σ shares %v, want min(capacity %v, demand %v)", sum, capacity, demandSum)
		}
	})
}

// TestValidateFirstViolationIsFixed: with two users over their demand,
// Validate names the lower user ID every time, not whichever a map
// range happens to yield first.
func TestValidateFirstViolationIsFixed(t *testing.T) {
	caps := map[gpu.Generation]int{gpu.K80: 100}
	demand := map[job.UserID]float64{"a": 1, "b": 1}
	alloc := Allocation{"b": {gpu.K80: 3}, "a": {gpu.K80: 2}}
	want := alloc.Validate(demand, caps)
	if want == nil || !strings.Contains(want.Error(), "user a ") {
		t.Fatalf("Validate = %v, want user a's violation", want)
	}
	for i := 0; i < 100; i++ {
		if err := alloc.Validate(demand, caps); err == nil || err.Error() != want.Error() {
			t.Fatalf("call %d: %v, first call %v", i, err, want)
		}
	}
}
