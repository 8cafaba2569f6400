// Package span is a leaf tracing substrate for the
// scheduler's round loop. One logical scheduling round is one trace;
// every phase inside it — whether executed by the in-process engine
// or by a remote agent — is a span with a parent link, the simulated
// round it belongs to, and wall-anchored monotonic timestamps.
//
// Design constraints, in order:
//
//  1. Determinism: span IDs are a per-process sequence prefixed with
//     an FNV hash of the process name, so concurrent processes never
//     collide and a fixed-seed run produces the same ID sequence
//     every time. Timestamps are wall-clock and therefore vary, but
//     they are observe-only: nothing in the scheduler reads them.
//  2. No dependencies on the scheduler: the package imports only the
//     standard library and the repository's ring container, so
//     internal/comm can carry spans across the wire without an import
//     cycle.
//  3. Bounded memory: the tracer keeps a ring (internal/ring) of the
//     last Cap spans and counts what it dropped.
//
// Export formats: WriteJSON emits the retained spans as a JSON array;
// WriteChromeTrace emits Chrome trace_event JSON loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing, with flow arrows linking
// remote spans to their cross-process parents.
package span

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/ring"
)

// ID identifies one span. The high 32 bits are an FNV-1a hash of the
// originating process name; the low 32 bits are a per-process
// sequence number starting at 1. Zero means "no span".
type ID uint64

// Span is one timed segment of work. Remote spans travel over the
// wire by value (gob/json), so every field is exported and plain.
type Span struct {
	// Trace groups spans of one logical round across processes. The
	// central scheduler (or the simulation core) sets it to the round
	// number + 1 so round 0 still gets a nonzero trace ID.
	Trace uint64 `json:"trace"`
	ID    ID     `json:"id"`
	// Parent is the enclosing span's ID; zero for a trace root. A
	// remote span's parent may live in another process.
	Parent ID     `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Proc names the originating process ("sim", "central",
	// "agent-3", ...); it becomes the Perfetto process row.
	Proc string `json:"proc"`
	// Round and SimAt anchor the span in simulated time.
	Round int     `json:"round"`
	SimAt float64 `json:"sim_at"`
	// StartNs is wall-clock Unix nanoseconds at span start; DurNs is
	// the monotonic duration. DurNs < 0 marks a span still open.
	StartNs int64 `json:"start_ns"`
	DurNs   int64 `json:"dur_ns"`
}

// Tracer records spans for one process into a bounded ring. All
// methods are safe for concurrent use, and every method is nil-safe
// so instrumented code needs no enablement checks.
type Tracer struct {
	mu     sync.Mutex
	proc   string
	procID uint32
	seq    uint32
	spans  ring.Ring[Span] // this tracer's own spans in ID order, injected ones among them

	// Current round context.
	trace uint64
	round int
	simAt float64
	root  ID

	epoch time.Time // wall and monotonic anchor
}

// DefaultCap bounds the span ring when the caller passes cap <= 0:
// at ~15 spans per round that retains several hundred rounds.
const DefaultCap = 8192

// New builds a Tracer for the named process keeping the last cap
// spans (DefaultCap when cap <= 0).
func New(proc string, cap int) *Tracer {
	if cap <= 0 {
		cap = DefaultCap
	}
	t := &Tracer{proc: proc, procID: hashProc(proc), epoch: time.Now()}
	t.spans.SetCap(cap)
	return t
}

func hashProc(proc string) uint32 {
	h := fnv.New32a()
	//gflint:ignore errdrop fnv hash Write cannot fail
	h.Write([]byte(proc))
	v := h.Sum32()
	if v == 0 {
		v = 1 // keep IDs nonzero even for a pathological hash
	}
	return v
}

// Proc returns the tracer's process name ("" for nil).
func (t *Tracer) Proc() string {
	if t == nil {
		return ""
	}
	return t.proc
}

// ns returns at as wall-anchored monotonic nanoseconds since the Unix
// epoch: the wall epoch captured at construction plus the monotonic
// time elapsed since, immune to wall-clock steps.
func (t *Tracer) ns(at time.Time) int64 {
	return t.epoch.UnixNano() + int64(at.Sub(t.epoch))
}

// begin opens a span at instant at under the lock and returns its ID.
func (t *Tracer) begin(trace uint64, name string, parent ID, round int, simAt float64, at time.Time) ID {
	t.seq++
	id := ID(uint64(t.procID)<<32 | uint64(t.seq))
	t.spans.Push(Span{
		Trace: trace, ID: id, Parent: parent, Name: name,
		Proc: t.proc, Round: round, SimAt: simAt,
		StartNs: t.ns(at), DurNs: -1,
	})
	return id
}

// rootName names a round's root span.
const rootName = "round"

// BeginRound opens the root span of a new round-scoped trace. The
// trace ID is round+1 in every process, which is what stitches the
// central and agent halves of one round into a single trace.
func (t *Tracer) BeginRound(round int, simAt float64) ID {
	return t.BeginRemote(uint64(round)+1, round, simAt, rootName, 0)
}

// BeginRemote opens a span whose parent lives in another process:
// the agent side of a dispatched round. trace and parent come off
// the wire; the span still gets this process's ID prefix.
func (t *Tracer) BeginRemote(trace uint64, round int, simAt float64, name string, parent ID) ID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trace, t.round, t.simAt = trace, round, simAt
	t.root = t.begin(trace, name, parent, round, simAt, time.Now())
	return t.root
}

// Start opens a child span of the current round root now.
func (t *Tracer) Start(name string) ID { return t.StartAt(name, time.Now()) }

// StartAt is Start at an instant the caller already read.
func (t *Tracer) StartAt(name string, at time.Time) ID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.begin(t.trace, name, t.root, t.round, t.simAt, at)
}

// End closes an open span now.
func (t *Tracer) End(id ID) { t.EndAt(id, time.Now()) }

// EndAt closes an open span at the given instant. Ending an unknown,
// closed or already-evicted span is a no-op.
func (t *Tracer) EndAt(id ID, at time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := t.spans.Len() - 1; i >= 0; i-- {
		s := t.spans.At(i)
		if s.ID == id && s.DurNs < 0 {
			s.DurNs = t.ns(at) - s.StartNs
		}
		if s.ID>>32 == id>>32 && s.ID <= id {
			return // id's own span, or one older: look no further back
		}
	}
}

// EndRound closes the current round root span now.
func (t *Tracer) EndRound() { t.EndRoundAt(time.Now()) }

// EndRoundAt closes the current round root span at the given instant.
func (t *Tracer) EndRoundAt(at time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	root := t.root
	t.root = 0
	t.mu.Unlock()
	t.EndAt(root, at)
}

// Root returns the current round-root span ID (0 when no round is
// open or the tracer is nil).
func (t *Tracer) Root() ID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.root
}

// Trace returns the current trace ID (0 when none).
func (t *Tracer) Trace() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.trace
}

// Inject merges spans recorded by another process (an agent's report)
// into this tracer's ring, preserving their IDs and timestamps.
func (t *Tracer) Inject(spans []Span) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range spans {
		t.spans.Push(s)
	}
}

// Dropped returns how many spans the ring has evicted.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans.Dropped()
}

// Spans returns the retained spans oldest-first. Nil tracer → nil.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans.Slice()
}

// RoundSpans returns the retained spans belonging to one round
// (trace == round+1), oldest-first, in one exactly sized slice.
func (t *Tracer) RoundSpans(round int) []Span {
	if t == nil {
		return nil
	}
	want := uint64(round) + 1
	t.mu.Lock()
	defer t.mu.Unlock()
	// Nothing of a round precedes its root span: count back no further
	// (a closed round's spans are the ring's newest few, not all of it).
	n, from := 0, t.spans.Len()
	for from > 0 {
		from--
		if s := t.spans.At(from); s.Trace == want {
			if n++; s.Parent == 0 && s.Name == rootName {
				break
			}
		}
	}
	out := make([]Span, 0, n)
	for i := from; i < t.spans.Len(); i++ {
		if s := t.spans.At(i); s.Trace == want {
			out = append(out, *s)
		}
	}
	return out
}

// WriteJSON writes the retained spans as an indented JSON array
// (oldest-first; `[]` when empty).
func (t *Tracer) WriteJSON(w io.Writer) error {
	spans := t.Spans()
	if spans == nil {
		spans = []Span{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spans)
}

// WriteChromeTrace renders spans in Chrome trace_event JSON (the
// object form with a traceEvents array), loadable in Perfetto. Each
// distinct Proc becomes a process row; cross-process parent links
// become flow arrows.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTrace(w, t.Spans())
}

// chromeEvent is one trace_event entry. Timestamps are microseconds.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Pid   uint32         `json:"pid"`
	Tid   uint32         `json:"tid"`
	ID    string         `json:"id,omitempty"`
	BP    string         `json:"bp,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace renders an arbitrary span slice as Chrome
// trace_event JSON. Spans still open (DurNs < 0) render with zero
// duration.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	events := make([]chromeEvent, 0, len(spans)+8)

	// One metadata event per distinct process, named deterministically.
	procPid := make(map[string]uint32)
	var procs []string
	for _, s := range spans {
		if _, ok := procPid[s.Proc]; !ok {
			procPid[s.Proc] = hashProc(s.Proc)
			procs = append(procs, s.Proc)
		}
	}
	sort.Strings(procs)
	for _, p := range procs {
		events = append(events, chromeEvent{
			Name: "process_name", Phase: "M", Pid: procPid[p],
			Args: map[string]any{"name": p},
		})
	}

	byID := make(map[ID]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		pid := procPid[s.Proc]
		ts := float64(s.StartNs) / 1e3
		dur := float64(s.DurNs) / 1e3
		if s.DurNs < 0 {
			dur = 0
		}
		events = append(events, chromeEvent{
			Name: s.Name, Phase: "X", Ts: ts, Dur: dur,
			Pid: pid, Tid: pid,
			Args: map[string]any{
				"trace": s.Trace, "round": s.Round, "sim_at": s.SimAt,
				"span": fmt.Sprintf("%#x", uint64(s.ID)),
			},
		})
		// Cross-process parent → flow arrow from the parent's start
		// to this span's start.
		if s.Parent != 0 {
			if p, ok := byID[s.Parent]; ok && p.Proc != s.Proc {
				flowID := fmt.Sprintf("%#x", uint64(s.ID))
				events = append(events, chromeEvent{
					Name: "dispatch", Phase: "s", Ts: float64(p.StartNs) / 1e3,
					Pid: procPid[p.Proc], Tid: procPid[p.Proc], ID: flowID,
				})
				events = append(events, chromeEvent{
					Name: "dispatch", Phase: "f", BP: "e", Ts: ts,
					Pid: pid, Tid: pid, ID: flowID,
				})
			}
		}
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{events})
}
