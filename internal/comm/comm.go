// Package comm provides the message protocol and transports for
// Gandiva_fair's distributed architecture: a central scheduler
// exchanging typed messages with per-server agents. Two transports
// are provided — an in-memory hub (deterministic tests, examples)
// and TCP with gob encoding (the real wire, exercised by
// examples/distributed) — behind one Transport interface, so the
// scheduler and agents are oblivious to which carries them.
package comm

import (
	"encoding/gob"
	"fmt"
	"sync"

	"repro/internal/obs/span"
)

// Message is a protocol message. Concrete types are registered with
// gob in this package's init so they cross the TCP transport.
type Message interface{}

// Envelope wraps a message with its sender plus the two fields the
// partition-tolerant protocol rides on. Every transport carries all
// four fields; the protocol's endpoints send through a Retrier, which
// sets Seq and Sum, and admit nothing without them (Dedup.Admit):
//
//   - Seq is a per-sender (strictly: per Retrier, per destination)
//     monotone sequence number, starting at 1. Receivers feed it to
//     Dedup so a duplicated or replayed delivery is detected and
//     dropped.
//   - Sum is a checksum over the fields of Msg (see Checksum and
//     Seal), independent of the wire encoding, and never 0. Receivers
//     Verify it before acting on a message, so payload corruption on
//     the wire is detected and counted, never applied.
//
// A raw Transport.Send carries whatever it is given.
type Envelope struct {
	From string
	Seq  uint64
	Sum  uint64
	Msg  Message
}

// Transport moves envelopes between named endpoints.
type Transport interface {
	// Send delivers to the named endpoint. It must not block
	// indefinitely; delivery to a closed endpoint returns an error.
	Send(to string, e Envelope) error
	// Recv returns the endpoint's inbox channel; it is closed when
	// the transport closes.
	Recv() <-chan Envelope
	// Name returns this endpoint's address.
	Name() string
	// Close tears the endpoint down.
	Close() error
}

// ---------------------------------------------------------------------------
// Protocol messages

// Register announces an agent and its server inventory.
type Register struct {
	Agent string
	Gen   int // gpu.Generation as int (gob-friendly)
	GPUs  int
}

// RegisterAck confirms registration.
type RegisterAck struct {
	OK     bool
	Reason string
}

// JobAssignment places one job on an agent for the coming quantum.
type JobAssignment struct {
	JobID     int64
	User      string
	Model     string
	Gang      int
	LocalGPUs []int // indices within the agent's server
	// Checkpoint carries the job's training state on (re)placement:
	// minibatches done and total. The agent is stateless across
	// migrations — exactly Gandiva's checkpoint semantics.
	DoneMB, TotalMB float64
	GangRate        float64 // whole-gang minibatches/sec on this agent's generation (every shard of a gang is sent the whole gang's)
	Overhead        float64 // seconds of the quantum without progress: resume or migration cost, cross-server span penalty, a degraded server

	// Shard is the fraction of the job's gang running on this agent,
	// in (0, 1]: 1 for a job wholly on this server. Degraded-mode
	// agents only trust their local progress for whole jobs, never
	// cross-server shards.
	Shard float64
}

// RoundPlan is the central scheduler's decision for one agent.
type RoundPlan struct {
	Round   int
	Quantum float64 // seconds of training time this round
	Jobs    []JobAssignment

	// Epoch fences central incarnations: a fresh central is epoch 1
	// and every restart increases it (persisted in the snapshot).
	// Agents reject plans older than the newest epoch they have seen,
	// and the central rejects reports from any epoch but its own — a
	// restarted or partitioned-then-healed central can never
	// split-brain the cluster.
	Epoch int

	// Lease is the degraded-mode budget in rounds: an agent cut off
	// from the central keeps its local job state and buffers unacked
	// reports for up to Lease rounds before parking (discarding) them.
	// Zero is a lease of zero rounds: a report the central has not
	// acknowledged by the next plan is parked.
	Lease int

	// AckRound is the highest round of this agent's reports the
	// central has applied; the agent prunes its resend backlog up to
	// it (cumulative ack).
	AckRound int

	// Trace/Span propagate the central scheduler's trace context so
	// one logical round forms a single cross-process trace: Trace is
	// the round's trace ID, Span the central round-root span the
	// agent's spans parent under. Both are zero when the central's
	// tracing is off, and then the agent records no spans.
	Trace uint64
	Span  uint64
}

// JobProgress reports one job's state after a round.
type JobProgress struct {
	JobID    int64
	DoneMB   float64
	Finished bool
	UsedSecs float64 // productive seconds within the quantum
}

// RoundReport is an agent's response to a RoundPlan.
type RoundReport struct {
	Agent string
	Round int
	Jobs  []JobProgress

	// Epoch echoes the plan's epoch so the central can fence reports
	// produced under another incarnation: it accepts only its own.
	Epoch int

	// Spans are the agent's spans for this round (present only when
	// the plan carried a trace context); the central scheduler
	// injects them into its tracer to complete the round's trace.
	Spans []span.Span
}

// Shutdown tells an agent to exit.
type Shutdown struct{}

func init() {
	gob.Register(Register{})
	gob.Register(RegisterAck{})
	gob.Register(RoundPlan{})
	gob.Register(RoundReport{})
	gob.Register(Shutdown{})
}

// ---------------------------------------------------------------------------
// In-memory hub

// Hub is an in-process transport fabric. Endpoints attach by name and
// exchange envelopes through buffered channels.
type Hub struct {
	mu        sync.Mutex
	endpoints map[string]*hubEndpoint
}

// NewHub creates an empty hub.
func NewHub() *Hub {
	return &Hub{endpoints: make(map[string]*hubEndpoint)}
}

type hubEndpoint struct {
	hub    *Hub
	name   string
	inbox  chan Envelope
	closed bool
	mu     sync.Mutex
}

// Attach creates an endpoint on the hub. Names must be unique.
func (h *Hub) Attach(name string) (Transport, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, dup := h.endpoints[name]; dup {
		return nil, fmt.Errorf("comm: endpoint %q already attached", name)
	}
	ep := &hubEndpoint{hub: h, name: name, inbox: make(chan Envelope, 256)}
	h.endpoints[name] = ep
	return ep, nil
}

func (e *hubEndpoint) Send(to string, env Envelope) error {
	e.hub.mu.Lock()
	dst, ok := e.hub.endpoints[to]
	e.hub.mu.Unlock()
	if !ok {
		return fmt.Errorf("comm: no endpoint %q", to)
	}
	dst.mu.Lock()
	defer dst.mu.Unlock()
	if dst.closed {
		return fmt.Errorf("comm: endpoint %q closed", to)
	}
	select {
	case dst.inbox <- env:
		return nil
	default:
		return fmt.Errorf("comm: endpoint %q inbox full", to)
	}
}

func (e *hubEndpoint) Recv() <-chan Envelope { return e.inbox }
func (e *hubEndpoint) Name() string          { return e.name }

// Close detaches the endpoint. The name is freed only while it still
// names this endpoint: a stale endpoint closed again after the name was
// attached anew leaves its successor attached.
func (e *hubEndpoint) Close() error {
	e.hub.mu.Lock()
	if e.hub.endpoints[e.name] == e {
		delete(e.hub.endpoints, e.name)
	}
	e.hub.mu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.closed {
		e.closed = true
		close(e.inbox)
	}
	return nil
}
