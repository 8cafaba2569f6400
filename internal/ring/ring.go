// Package ring is the repository's one bounded-history container: the
// event log, the observer's decision and trade views, the span tracer
// and the flight recorder's round window are all "keep the newest N,
// count what fell off".
package ring

// chunkLen is how many values an unbounded ring holds per chunk: it
// grows by adding chunks, so growing never copies (or briefly doubles)
// what a long run has logged.
const chunkLen = 512

// Ring keeps the most recent Cap values pushed, oldest first — all of
// them while Cap is 0, the zero value. Not safe for concurrent use.
type Ring[T any] struct {
	full    [][]T // unbounded only: the filled chunks before buf, chunkLen values each
	buf     []T   // bounded: the whole ring, circular once full; unbounded: the chunk being filled
	max     int   // 0 = unbounded
	head    int   // index in buf of the oldest value once a bounded ring has wrapped
	dropped uint64
}

// SetCap bounds the ring to the newest n values; n <= 0 removes the
// bound. Values beyond the new bound are dropped at once, oldest first.
func (r *Ring[T]) SetCap(n int) {
	held := r.Slice()
	*r = Ring[T]{max: max(n, 0), dropped: r.dropped}
	if over := len(held) - r.max; r.max > 0 && over > 0 {
		held = held[over:]
		r.dropped += uint64(over)
	}
	for _, v := range held {
		r.Push(v)
	}
}

// Cap returns the bound (0 = unbounded).
func (r *Ring[T]) Cap() int { return r.max }

// Len returns how many values are held.
func (r *Ring[T]) Len() int { return len(r.full)*chunkLen + len(r.buf) }

// Dropped returns how many values the bound has discarded.
func (r *Ring[T]) Dropped() uint64 { return r.dropped }

// Push adds v, evicting the oldest value when the ring is full.
func (r *Ring[T]) Push(v T) {
	limit := chunkLen
	if r.max > 0 {
		limit = r.max
	}
	switch {
	case len(r.buf) < cap(r.buf):
	case len(r.buf) < limit: // double, not append's 1.25×: half the copying on the way to limit
		r.buf = append(make([]T, 0, min(max(2*cap(r.buf), 16), limit)), r.buf...)
	case r.max > 0:
		r.buf[r.head] = v
		r.head = (r.head + 1) % r.max
		r.dropped++
		return
	default:
		r.full = append(r.full, r.buf)
		r.buf = make([]T, 0, chunkLen)
	}
	r.buf = append(r.buf, v)
}

// At returns the i-th oldest value, 0 <= i < Len.
func (r *Ring[T]) At(i int) *T {
	if c := i / chunkLen; c < len(r.full) {
		return &r.full[c][i%chunkLen]
	}
	return &r.buf[(r.head+i-len(r.full)*chunkLen)%len(r.buf)]
}

// Slice returns the held values oldest first, as a copy.
func (r *Ring[T]) Slice() []T {
	out := make([]T, 0, r.Len())
	for _, c := range r.full {
		out = append(out, c...)
	}
	out = append(out, r.buf[r.head:]...)
	return append(out, r.buf[:r.head]...)
}
