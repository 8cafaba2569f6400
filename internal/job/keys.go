package job

import (
	"math"
	"sort"
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
// arrive together keep their input order, and +0 ties −0. That is the
// order slices.SortStableFunc by Arrival gives, reached in linear time.
// Each arrival maps to a uint64 whose unsigned order is its float
// order: −0 becomes +0, a negative has all its bits flipped and a
// positive its sign bit set (a valid spec's arrival is never NaN). A
// stable LSD radix sort orders those keys beside their input
// positions, a byte a pass, skipping each pass in which every key has
// the same byte, and one walk moves each spec to its slot. Input
// already in order, which a stable sort leaves as it is, costs one
// scan: a generated workload reaches the engine's event cursor in
// order, and so does any trace whose jobs all arrive at once.
func SortByArrival(specs []Spec) {
	i := 1
	for i < len(specs) && specs[i].Arrival >= specs[i-1].Arrival {
		i++
	}
	if i >= len(specs) {
		return
	}
	type key struct {
		k   uint64
		pos int
	}
	keys := make([]key, 2*len(specs))
	keys, spare := keys[:len(specs)], keys[len(specs):]
	var counts [8][256]int
	for i := range specs {
		a := float64(specs[i].Arrival)
		if a == 0 {
			a = 0 // −0 ties +0
		}
		k := math.Float64bits(a)
		if k>>63 != 0 {
			k = ^k
		} else {
			k |= 1 << 63
		}
		keys[i] = key{k, i}
		for d := range counts {
			counts[d][byte(k>>(8*d))]++
		}
	}
	for d := range counts {
		c := &counts[d]
		if c[byte(keys[0].k>>(8*d))] == len(keys) {
			continue // every key has this byte: the pass would move nothing
		}
		at := 0
		for b, n := range c {
			c[b] = at
			at += n
		}
		for _, e := range keys {
			b := byte(e.k >> (8 * d))
			spare[c[b]] = e
			c[b]++
		}
		keys, spare = spare, keys
	}
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
