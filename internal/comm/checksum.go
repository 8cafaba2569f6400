package comm

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/obs/span"
)

// sum64 is the running state of Checksum. The methods feed it the
// canonical field encoding Checksum is defined over: every integer and
// float's bits as one 64-bit word, strings and slices prefixed with
// their length so adjacent fields cannot trade bytes, and a string's
// bytes as little-endian words (the last one zero-padded; the length
// prefix keeps padding unambiguous).
//
// Each word enters in one step: xor it in, multiply by the odd 64-bit
// FNV prime, then xor the high half into the low half. All three are
// bijections of the state (xor with a fixed word, multiplication by an
// odd number mod 2^64, and h ^ h>>32), and the xor is one in the word
// too, so a step maps distinct states to distinct states and distinct
// words to distinct states. Every later step is again a bijection of
// the state, so changing any one field of a message always changes
// its sum. The multiply alone carries only low bits upward; the shift
// carries the high bits back down, so a word's high bits reach every
// bit of the sum within a few steps.
type sum64 uint64

const (
	fnvOffset64 sum64 = 14695981039346656037
	fnvPrime64  sum64 = 1099511628211
)

func (h sum64) u64(v uint64) sum64 {
	h = (h ^ sum64(v)) * fnvPrime64
	return h ^ h>>32
}

func (h sum64) int(v int) sum64 { return h.u64(uint64(int64(v))) }

func (h sum64) bool(v bool) sum64 {
	if v {
		return h.u64(1)
	}
	return h.u64(0)
}

// f64 hashes the IEEE bits, with -0 folded into +0: gob omits zero
// struct fields by value, so a negative zero arrives as a positive one.
func (h sum64) f64(v float64) sum64 {
	if v == 0 {
		return h.u64(0)
	}
	return h.u64(math.Float64bits(v))
}

func (h sum64) str(s string) sum64 {
	h = h.int(len(s))
	for ; len(s) >= 8; s = s[8:] {
		h = h.u64(uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56)
	}
	if len(s) == 0 {
		return h
	}
	var w uint64
	for i := len(s) - 1; i >= 0; i-- {
		w = w<<8 | uint64(s[i])
	}
	return h.u64(w)
}

func (h sum64) assignment(a *JobAssignment) sum64 {
	h = h.u64(uint64(a.JobID)).str(a.User).str(a.Model).int(a.Gang).int(len(a.LocalGPUs))
	for _, g := range a.LocalGPUs {
		h = h.int(g)
	}
	return h.f64(a.DoneMB).f64(a.TotalMB).f64(a.GangRate).f64(a.Overhead).f64(a.Shard)
}

func (h sum64) progress(p *JobProgress) sum64 {
	return h.u64(uint64(p.JobID)).f64(p.DoneMB).bool(p.Finished).f64(p.UsedSecs)
}

func (h sum64) span(s *span.Span) sum64 {
	return h.u64(s.Trace).u64(uint64(s.ID)).u64(uint64(s.Parent)).str(s.Name).str(s.Proc).
		int(s.Round).f64(s.SimAt).u64(uint64(s.StartNs)).u64(uint64(s.DurNs))
}

// Checksum returns a canonical 64-bit hash over the fields of a
// protocol message: a type tag, then every field in declaration order,
// one multiply-xorshift step per 64-bit word (see sum64 for the
// encoding and why a change to any one field changes the sum). It
// allocates nothing, and it is invariant under a gob/TCP round trip —
// a nil slice and an empty one hash alike, as do -0 and +0. Sender and
// receiver compute identical sums for identical payloads as long as
// both run the same build; a field added to a message must be added
// here (the reflection test in checksum_test.go fails otherwise). Any
// other payload type (unregistered test doubles, nil) returns an
// error; callers treat it as unsealable.
func Checksum(m Message) (uint64, error) {
	h := fnvOffset64
	switch m := m.(type) {
	case Register:
		h = h.u64(1).str(m.Agent).int(m.Gen).int(m.GPUs)
	case RegisterAck:
		h = h.u64(2).bool(m.OK).str(m.Reason)
	case RoundPlan:
		h = h.u64(3).int(m.Round).f64(m.Quantum).int(len(m.Jobs))
		for i := range m.Jobs {
			h = h.assignment(&m.Jobs[i])
		}
		h = h.int(m.Epoch).int(m.Lease).int(m.AckRound).u64(m.Trace).u64(m.Span)
	case RoundReport:
		h = h.u64(4).str(m.Agent).int(m.Round).int(len(m.Jobs))
		for i := range m.Jobs {
			h = h.progress(&m.Jobs[i])
		}
		h = h.int(m.Epoch).int(len(m.Spans))
		for i := range m.Spans {
			h = h.span(&m.Spans[i])
		}
	case Shutdown:
		h = h.u64(5)
	default:
		return 0, fmt.Errorf("comm: no checksum for message type %T", m)
	}
	return uint64(h), nil
}

// nonzero maps a zero hash to one: Sum 0 is what an unsealed envelope
// carries, so no seal may produce it and Verify refuses it unasked.
func nonzero(sum uint64) uint64 {
	if sum == 0 {
		return 1
	}
	return sum
}

// sealSum is the value Seal stamps for a payload and Verify compares.
func sealSum(m Message) (uint64, error) {
	sum, err := Checksum(m)
	if err != nil {
		return 0, err
	}
	return nonzero(sum), nil
}

// Seal stamps e.Sum with the payload checksum (a vanishingly unlikely
// zero hash becomes one, see nonzero). Sealing a payload Checksum does
// not cover returns the envelope unchanged along with the error.
func Seal(e Envelope) (Envelope, error) {
	sum, err := sealSum(e.Msg)
	if err != nil {
		return e, err
	}
	e.Sum = sum
	return e, nil
}

// Verify reports whether the envelope's payload matches its checksum.
// An envelope whose payload no longer hashes to Sum — corruption in
// flight — fails, as do an unsealed one (Sum 0, which no seal
// produces) and one whose payload is no protocol message.
func Verify(e Envelope) bool {
	sum, err := sealSum(e.Msg)
	return err == nil && sum == e.Sum
}

// Dedup detects redelivered sequenced envelopes per peer. Memory is
// bounded: once a peer's seen-set exceeds the window, sequence
// numbers far below its maximum are pruned and treated as already
// seen (they are, by the sender's monotonicity, ancient retransmits).
// Safe for concurrent use.
type Dedup struct {
	mu     sync.Mutex
	window int
	peers  map[string]*peerSeen
}

// seqRun is a run of consecutive sequence numbers, both ends included.
type seqRun struct{ lo, hi uint64 }

// peerSeen is one peer's seen-set: everything up to floor, plus the
// runs above it. A sender numbers its messages consecutively, so
// in-order delivery keeps one run and grows nothing; a reordered
// message opens a run that closes when the gap fills, a sequence
// number the sender burnt on a failed send leaves one until the floor
// passes it.
type peerSeen struct {
	runs  []seqRun // disjoint, ascending, never adjacent
	n     int      // sequence numbers held in runs
	floor uint64   // every seq <= floor counts as seen
}

// add records seq and reports whether it was already there.
func (p *peerSeen) add(seq uint64) bool {
	if seq <= p.floor {
		return true
	}
	// i is the first run that starts above seq, so only run i-1 can
	// hold seq and only runs i-1 and i can touch it.
	i, _ := slices.BinarySearchFunc(p.runs, seq, func(r seqRun, seq uint64) int {
		if r.lo > seq {
			return 1
		}
		return -1
	})
	if i > 0 && seq <= p.runs[i-1].hi {
		return true
	}
	below := i > 0 && p.runs[i-1].hi+1 == seq
	above := i < len(p.runs) && seq+1 == p.runs[i].lo
	switch {
	case below && above:
		p.runs[i-1].hi = p.runs[i].hi
		p.runs = slices.Delete(p.runs, i, i+1)
	case below:
		p.runs[i-1].hi = seq
	case above:
		p.runs[i].lo = seq
	default:
		p.runs = slices.Insert(p.runs, i, seqRun{seq, seq})
	}
	p.n++
	return false
}

// pruneTo raises the floor, forgetting the runs it swallows.
func (p *peerSeen) pruneTo(floor uint64) {
	p.floor = floor
	k := 0
	for k < len(p.runs) && p.runs[k].hi <= floor {
		k++
	}
	p.runs = slices.Delete(p.runs, 0, k)
	if len(p.runs) > 0 && p.runs[0].lo <= floor {
		p.runs[0].lo = floor + 1
	}
	p.n = 0
	for _, r := range p.runs {
		p.n += int(r.hi - r.lo + 1)
	}
}

// NewDedup builds a Dedup with a 4096-sequence window per peer.
func NewDedup() *Dedup {
	return &Dedup{window: 4096, peers: make(map[string]*peerSeen)}
}

// Duplicate records (from, seq) and reports whether it was already
// seen. A sender numbers from 1, so 0 is below every window: seen.
func (d *Dedup) Duplicate(from string, seq uint64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	p := d.peers[from]
	if p == nil {
		p = &peerSeen{}
		d.peers[from] = p
	}
	if p.add(seq) {
		return true
	}
	if p.n > d.window {
		// More than a window of distinct numbers puts the maximum
		// above the window, so the subtraction cannot wrap.
		p.pruneTo(p.runs[len(p.runs)-1].hi - uint64(d.window/2))
	}
	return false
}

// Reset forgets a peer's history. Called when a peer legitimately
// restarts (a fresh Register): its new process restarts its sequence
// space, which must not collide with its predecessor's.
func (d *Dedup) Reset(from string) {
	d.mu.Lock()
	delete(d.peers, from)
	d.mu.Unlock()
}

// Admit is the receive check both protocol ends run on every envelope
// before acting on it. It names the event to count when it refuses the
// envelope — "corrupt_detected" for one that fails Verify or carries no
// sequence number, "dup_dropped" for a redelivery — and returns "" to
// admit it. A Register is never a duplicate: it resets its sender's
// window instead, because a restarted agent restarts its numbering
// (registration itself is idempotent at the central).
func (d *Dedup) Admit(e Envelope) string {
	if e.Seq == 0 || !Verify(e) {
		return "corrupt_detected"
	}
	if _, isReg := e.Msg.(Register); isReg {
		d.Reset(e.From)
		return ""
	}
	if d.Duplicate(e.From, e.Seq) {
		return "dup_dropped"
	}
	return ""
}
