// Package floatsumfix exercises order on map-ordered slices: sums over
// slices whose element order was set by a map iteration one dataflow
// step earlier. The filling appends are reported in the map range;
// the downstream sums where they range over the slice.
package floatsumfix

import "sort"

// BadCollectThenSum sums a slice filled in map order.
func BadCollectThenSum(m map[string]float64) float64 {
	var vals []float64
	for _, v := range m {
		vals = append(vals, v)
	}
	var total float64
	for _, v := range vals {
		total += v
	}
	return total
}

// BadAliasSum sums through a local alias of a map-ordered slice.
func BadAliasSum(m map[string]float64) float64 {
	var vals []float64
	for _, v := range m {
		vals = append(vals, v)
	}
	view := vals
	var total float64
	for _, v := range view {
		total += v
	}
	return total
}

// BadSumCall hands a map-ordered slice to a sum-shaped reducer.
func BadSumCall(m map[string]float64) float64 {
	var vals []float64
	for _, v := range m {
		vals = append(vals, v)
	}
	return sum(vals)
}

func sum(vs []float64) float64 {
	var t float64
	for _, v := range vs {
		t += v
	}
	return t
}

// SortedOK sorts between collecting and summing; clean in both
// the map range and the sum.
func SortedOK(m map[string]float64) float64 {
	var vals []float64
	for _, v := range m {
		vals = append(vals, v)
	}
	sort.Float64s(vals)
	var total float64
	for _, v := range vals {
		total += v
	}
	return total
}

// IntSumOK accumulates ints over a map-ordered slice — exact, so
// order-insensitive and exempt.
func IntSumOK(m map[string]int) int {
	var vals []int
	for _, v := range m {
		vals = append(vals, v)
	}
	n := 0
	for _, v := range vals {
		n += v
	}
	return n
}
