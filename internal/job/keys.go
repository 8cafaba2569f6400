package job

import "sort"

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

// SortedIDs is SortedUsers for per-job maps.
func SortedIDs[V any](m map[ID]V) []ID {
	out := make([]ID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
