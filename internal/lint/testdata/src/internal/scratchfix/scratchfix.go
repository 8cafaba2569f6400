// Package scratchfix exercises retain's scratch rule: functions reusing a
// long-lived backing array via buf[:0] while also letting an alias of
// it escape the call.
package scratchfix

// Pool owns a per-call scratch slice (deliberately unannotated: the
// analyzer detects the reuse pattern itself).
type Pool struct {
	buf []int
}

// BadReturnAlias reuses p.buf and returns a view of it.
func (p *Pool) BadReturnAlias(xs []int) []int {
	out := p.buf[:0]
	for _, x := range xs {
		if x > 0 {
			out = append(out, x)
		}
	}
	p.buf = out
	return out
}

// CopyOK reuses p.buf but returns a fresh copy.
func (p *Pool) CopyOK(xs []int) []int {
	out := p.buf[:0]
	for _, x := range xs {
		if x > 0 {
			out = append(out, x)
		}
	}
	p.buf = out
	res := make([]int, len(out))
	copy(res, out)
	return res
}

// grow returns buf emptied, with room for n: in its storage if it has
// room, else fresh.
//
//gflint:reuses buf
func grow(buf []int, n int) []int {
	if n > cap(buf) {
		return make([]int, 0, n)
	}
	return buf[:0]
}

// BadReturnGrown reuses p.buf through grow and returns a view of it.
func (p *Pool) BadReturnGrown(xs []int) []int {
	out := grow(p.buf, len(xs))
	out = append(out, xs...)
	p.buf = out
	return out
}

// GrowCopyOK reuses p.buf through grow but returns a fresh copy.
func (p *Pool) GrowCopyOK(xs []int) []int {
	out := grow(p.buf, len(xs))
	out = append(out, xs...)
	p.buf = out
	return append([]int(nil), out...)
}

var scratch []int

// BadGlobalScratch reuses package-level scratch and sends an alias
// to another goroutine.
func BadGlobalScratch(xs []int, ch chan []int) {
	s := scratch[:0]
	s = append(s, xs...)
	scratch = s
	ch <- s
}

// View reuses p.buf and returns it under an explicit noretain
// contract — the obligation moves to the callers.
//
//gflint:noretain
func (p *Pool) View(xs []int) []int {
	out := p.buf[:0]
	out = append(out, xs...)
	p.buf = out
	return out
}

var kept []int

// BadViewCaller retains View's contracted result (a retain finding,
// proving the handoff from View to its callers).
func BadViewCaller(p *Pool) {
	kept = p.View(nil)
}

// ZeroCapOK caps capacity at zero: every append reallocates, so this
// is a copy, not reuse.
func ZeroCapOK(p *Pool) []int {
	return append(p.buf[:0:0], p.buf...)
}
