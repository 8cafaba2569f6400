// Package netchaos is a deterministic network fault injector for the
// distributed runtime: a comm.Transport middleware that disturbs
// traffic between named endpoints according to a precompiled,
// round-indexed fault schedule. It injects message drops,
// duplication, reordering, one-round delay, payload corruption
// (always detectable — envelopes are sealed before the payload is
// mutated, so receivers' checksums catch it), asymmetric one-way
// partitions, and full partitions.
//
// Determinism: faults are keyed by (link, round) windows compiled
// into faults.RoundSet span lists, and probabilistic faults flip a
// hash-based coin over (seed, fault, link, round, sequence number)
// rather than drawing from a shared RNG stream — concurrent senders
// cannot perturb each other's outcomes, so a given seed reproduces
// the exact same disturbance schedule regardless of goroutine
// interleaving.
//
// The harness drives time explicitly: call Advance(round) before each
// scheduling round so round windows take effect and delayed messages
// release, and Flush at teardown so nothing is held forever. Shutdown
// messages are exempt from injection — teardown of the harness itself
// is out of scope for the fault model.
package netchaos

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"repro/internal/comm"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Kind names one disturbance.
type Kind string

const (
	// Drop silently swallows the message (packet loss): the sender
	// sees success, the receiver sees nothing.
	Drop Kind = "drop"
	// Dup delivers the message twice, back to back, with identical
	// sequence number and checksum — the receiver's dedup must drop
	// the second copy.
	Dup Kind = "dup"
	// Reorder holds the message and releases it after the next
	// message on the same link (or at Advance/Flush), swapping
	// delivery order.
	Reorder Kind = "reorder"
	// Delay holds the message until the next Advance — a bounded
	// one-round delay, the deterministic model of a straggler that
	// misses the collect deadline.
	Delay Kind = "delay"
	// Corrupt mutates the payload after the envelope was sealed,
	// without resealing: the receiver's checksum verification must
	// detect it and drop the message (corruption is never applied).
	Corrupt Kind = "corrupt"
	// OneWay errors every send in the fault's From→To direction only
	// (an asymmetric partition: one side still hears the other).
	OneWay Kind = "oneway"
	// Partition errors every send in both directions between From and
	// To (a full partition; senders see a connection error at once,
	// which feeds the central's undeliverable-plan→immediate-miss
	// path).
	Partition Kind = "partition"
)

// Fault scripts one disturbance on one link for a window of rounds.
type Fault struct {
	Kind Kind
	// From and To name the link's endpoints ("*" matches any). OneWay
	// applies to the From→To direction; Partition to both.
	From, To string
	// Rounds is the active window [From, To). The zero interval means
	// "every round".
	Rounds faults.RoundInterval
	// Prob fires the fault on each matching message with this
	// probability (hash-coin, see package docs); <= 0 or >= 1 means
	// always.
	Prob float64
	// Max caps total firings (0 = unlimited). With wildcard links and
	// concurrent senders the cap's attribution can race; schedules
	// that must reproduce exactly pin From and To.
	Max int
}

// Config builds an Injector.
type Config struct {
	Seed   int64
	Faults []Fault
	// Obs counts injected faults on the gf_net_*_total counters (nil
	// is fine).
	Obs *obs.Observer
}

// Injector implements the fault schedule. Wrap each endpoint's
// transport with Wrap; one Injector serves every endpoint of a run so
// partitions and link faults see both directions.
type Injector struct {
	mu     sync.Mutex
	seed   int64
	obs    *obs.Observer
	round  int
	faults []*compiledFault
	counts map[Kind]int
	// delayed messages release at the next Advance; reorder holds one
	// message per link until the link's next send.
	delayed []held
	reorder map[string]*held
}

type compiledFault struct {
	idx   int // position in Config.Faults, feeds the hash coin
	f     Fault
	spans *faults.RoundSet // nil = every round
	fired int
}

type held struct {
	tr  comm.Transport
	to  string
	env comm.Envelope
}

// New compiles the schedule.
func New(cfg Config) *Injector {
	in := &Injector{
		seed:    cfg.Seed,
		obs:     cfg.Obs,
		counts:  make(map[Kind]int),
		reorder: make(map[string]*held),
	}
	for i, f := range cfg.Faults {
		cf := &compiledFault{idx: i, f: f}
		if !f.Rounds.Empty() {
			cf.spans = faults.CompileRounds([]faults.RoundInterval{f.Rounds})
		}
		in.faults = append(in.faults, cf)
	}
	return in
}

// Wrap returns tr with this injector spliced into its Send path.
// Recv, Name and Close pass through.
func (in *Injector) Wrap(tr comm.Transport) comm.Transport {
	return &wrapped{Transport: tr, in: in}
}

type wrapped struct {
	comm.Transport
	in *Injector
}

func (w *wrapped) Send(to string, e comm.Envelope) error {
	return w.in.send(w.Transport, to, e)
}

// Advance moves the injector to the given scheduling round: round
// windows switch accordingly and every delayed message releases into
// its destination (ahead of the round's own traffic, so a one-round
// delay is exactly one round late).
func (in *Injector) Advance(round int) {
	in.mu.Lock()
	if round > in.round {
		in.round = round
	}
	release := in.delayed
	in.delayed = nil
	in.mu.Unlock()
	for _, h := range release {
		_ = h.tr.Send(h.to, h.env)
	}
}

// Flush delivers everything still held (delayed and reordered).
// Call at teardown.
func (in *Injector) Flush() {
	in.mu.Lock()
	release := in.delayed
	in.delayed = nil
	links := make([]string, 0, len(in.reorder))
	for l := range in.reorder {
		links = append(links, l)
	}
	sort.Strings(links)
	for _, l := range links {
		release = append(release, *in.reorder[l])
		delete(in.reorder, l)
	}
	in.mu.Unlock()
	for _, h := range release {
		_ = h.tr.Send(h.to, h.env)
	}
}

// Stats returns how many times each fault kind fired.
func (in *Injector) Stats() map[Kind]int {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[Kind]int, len(in.counts))
	for k, v := range in.counts {
		out[k] = v
	}
	return out
}

func matches(pat, name string) bool { return pat == "*" || pat == name }

// linkMatches reports whether fault f applies to a send from→to.
func linkMatches(f Fault, from, to string) bool {
	if matches(f.From, from) && matches(f.To, to) {
		return true
	}
	// A full partition cuts both directions.
	return f.Kind == Partition && matches(f.From, to) && matches(f.To, from)
}

// coin flips the deterministic hash coin for fault cf on this message.
func (in *Injector) coin(cf *compiledFault, from, to string, seq uint64) bool {
	p := cf.f.Prob
	if p <= 0 || p >= 1 {
		return true
	}
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(in.seed))
	_, _ = h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(cf.idx))
	_, _ = h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(in.round))
	_, _ = h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], seq)
	_, _ = h.Write(buf[:])
	_, _ = h.Write([]byte(from))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(to))
	u := h.Sum64() % 1_000_000_007
	return float64(u)/1_000_000_007 < p
}

// pick selects the first armed fault matching this send (declaration
// order; a script that wants a specific disturbance lists it first).
// Caller holds the mutex.
func (in *Injector) pick(from, to string, e comm.Envelope) *compiledFault {
	for _, cf := range in.faults {
		if cf.spans != nil && !cf.spans.Active(in.round) {
			continue
		}
		if cf.f.Max > 0 && cf.fired >= cf.f.Max {
			continue
		}
		if !linkMatches(cf.f, from, to) {
			continue
		}
		if !in.coin(cf, from, to, e.Seq) {
			continue
		}
		cf.fired++
		in.counts[cf.f.Kind]++
		return cf
	}
	return nil
}

// corrupt returns a mutated copy of the payload. Only scalar fields
// are touched so the mutation never aliases slices the sender still
// owns; the point is solely that the bytes no longer match the seal.
func corrupt(m comm.Message) comm.Message {
	switch v := m.(type) {
	case comm.RoundPlan:
		v.Round += 1 << 20
		v.Quantum = v.Quantum*2 + 1
		return v
	case comm.RoundReport:
		v.Round += 1 << 20
		return v
	case comm.Register:
		v.GPUs += 1 << 20
		return v
	case comm.RegisterAck:
		v.OK = !v.OK
		v.Reason = v.Reason + "?"
		return v
	default:
		return fmt.Sprintf("netchaos: corrupted %T", m)
	}
}

func (in *Injector) send(tr comm.Transport, to string, e comm.Envelope) error {
	if _, isShutdown := e.Msg.(comm.Shutdown); isShutdown {
		return tr.Send(to, e)
	}
	from := tr.Name()
	in.mu.Lock()
	var kind Kind
	if cf := in.pick(from, to, e); cf != nil {
		kind = cf.f.Kind
	}
	link := from + "\x00" + to
	var prev *held // goes out behind whatever this call sends
	switch kind {
	case Drop, Dup, Corrupt, OneWay, Partition: // nothing to hold back
	case Delay:
		in.delayed = append(in.delayed, held{tr: tr, to: to, env: e})
	case Reorder:
		// The message held before goes out now, behind every message
		// sent since it was held — that is the reorder.
		prev = in.reorder[link]
		in.reorder[link] = &held{tr: tr, to: to, env: e}
	default:
		// No fault: a reordered predecessor on this link still goes
		// out behind this message.
		kind = ""
		prev = in.reorder[link]
		delete(in.reorder, link)
	}
	in.mu.Unlock()
	if kind != "" {
		in.obs.Emit(trace.Record{Kind: trace.KindNet, Name: string(kind)})
	}
	sends := 1
	switch kind {
	case OneWay, Partition:
		return fmt.Errorf("netchaos: link %s→%s partitioned", from, to)
	case Drop, Delay:
		return nil
	case Reorder:
		sends = 0
	case Corrupt:
		e.Msg = corrupt(e.Msg)
	case Dup:
		sends = 2
	}
	for ; sends > 0; sends-- {
		if err := tr.Send(to, e); err != nil {
			return err
		}
	}
	if prev != nil {
		return tr.Send(prev.to, prev.env)
	}
	return nil
}
