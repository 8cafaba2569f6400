// Package maprangefix exercises every order trigger in a map range and
// every exemption. Functions prefixed Bad produce findings; the rest are
// clean.
package maprangefix

import (
	"math/rand"
	"sort"

	"repro/internal/obs"
	"repro/internal/profiler"
	"repro/internal/trace"
)

func BadFloatSum(m map[string]float64) float64 {
	var total float64
	for _, v := range m {
		total += v
	}
	return total
}

func BadAppend(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

func BadAppendDerived(m map[string]int) []int {
	var out []int
	for k := range m {
		v := m[k] * 2
		out = append(out, v)
	}
	return out
}

func BadEmission(o *obs.Observer, m map[string]float64) {
	for u, v := range m {
		o.SetShare(u, v, v)
	}
}

func BadTrace(m map[string]int) {
	for k := range m {
		trace.Emit(k)
	}
}

func BadRand(m map[string]int, rng *rand.Rand) int {
	n := 0
	for range m {
		n += rng.Intn(10)
	}
	return n
}

func BadProfiler(p *profiler.Profiler, m map[int]int) {
	for id := range m {
		p.Observe(id, 0)
	}
}

func KeyedWrite(m map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for k, v := range m {
		out[k] += v
	}
	return out
}

func KeyedAppend(m map[string][]int) map[string][]int {
	out := make(map[string][]int)
	for k, vs := range m {
		out[k] = append(out[k], vs...)
	}
	return out
}

func CollectThenSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func ConstAccum(m map[string]int) float64 {
	var n float64
	for range m {
		n += 1.5
	}
	return n
}

func IntAccum(m map[string]int) int {
	var n int
	for _, v := range m {
		n += v
	}
	return n
}

func LoopLocalAccum(m map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for k, v := range m {
		acc := 0.0
		acc += v * 2
		out[k] = acc
	}
	return out
}

func ProfilerRead(p *profiler.Profiler, m map[int]int) int {
	n := 0
	for id := range m {
		if _, ok := p.Rate(id); ok {
			n++
		}
	}
	return n
}
