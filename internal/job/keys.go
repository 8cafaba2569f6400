package job

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/simclock"
)

// SortedUsers returns m's user keys in ascending order. Iterating a
// per-user map through it keeps float sums, appends, and event
// emission independent of Go's randomized map order (gflint order).
func SortedUsers[V any](m map[UserID]V) []UserID {
	out := make([]UserID, 0, len(m))
	for u := range m {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SortedIDs is SortedUsers for per-job maps. It is test support: the
// tests of several packages walk per-job maps with it, and no
// production code calls it.
func SortedIDs[V any](m map[ID]V) []ID {
	out := make([]ID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SortByArrival orders specs by arrival time in place; specs that
// arrive together keep their input order. That is the order
// slices.SortStableFunc by Arrival gives, reached by one unstable sort
// of 16-byte (Arrival, input position) keys — a total order, since a
// valid spec's arrival is never NaN — and one pass that moves each spec
// to its slot. Input already in order, which a stable sort leaves as it
// is, costs one scan: a generated workload reaches the engine's event
// cursor in order, and there the key array would cost as much as the
// stable sort did.
func SortByArrival(specs []Spec) {
	i := 1
	for i < len(specs) && specs[i].Arrival >= specs[i-1].Arrival {
		i++
	}
	if i >= len(specs) {
		return
	}
	type key struct {
		at  simclock.Time
		pos int
	}
	keys := make([]key, len(specs))
	for i := range specs {
		keys[i] = key{specs[i].Arrival, i}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if c := a.at.Compare(b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	// Slot i takes the spec from keys[i].pos: walk each cycle of that
	// permutation once, marking a slot done by pointing it at itself.
	for i := range keys {
		if keys[i].pos == i {
			continue
		}
		first, j := specs[i], i
		for {
			k := keys[j].pos
			keys[j].pos = j
			if k == i {
				specs[j] = first
				break
			}
			specs[j] = specs[k]
			j = k
		}
	}
}
