// Package flight is the engine's flight recorder: a bounded ring of
// the last N rounds' observability snapshots (spans, decisions,
// trades, fault events, per-user shares), dumped atomically to a
// JSON file when something goes wrong — an audit violation, a panic
// in the round loop, a soak-contract failure, or an operator trigger
// (SIGUSR1 / HTTP).
//
// The recorder is an obs.RoundSink: attach it with
// Observer.SetSink(rec) and every completed round flows in. It is
// strictly observe-only; nothing in the scheduler reads it back, so
// recording on vs off cannot change scheduling results.
package flight

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/ring"
)

// DefaultRounds is the ring depth when New is given n <= 0.
const DefaultRounds = 64

// Dump is the on-disk artifact: why it was written, when, and the
// retained rounds oldest-first.
type Dump struct {
	// Reason is what triggered the dump: "audit-violation", "panic",
	// "soak-failure", "signal", "http", or "manual".
	Reason string `json:"reason"`
	// Detail carries the trigger's specifics (the violated invariant,
	// the panic value, ...).
	Detail string `json:"detail,omitempty"`
	// WrittenAt is the wall-clock dump time (RFC 3339).
	WrittenAt string `json:"written_at"`
	// RoundsDropped counts rounds evicted from the ring before the
	// dump; nonzero means the window did not reach back to round 0.
	RoundsDropped uint64 `json:"rounds_dropped"`
	// Rounds is the retained window, oldest-first.
	Rounds []obs.RoundSnapshot `json:"rounds"`
}

// Recorder keeps the last N rounds of observability state and writes
// them out on demand. All methods are safe for concurrent use and
// nil-safe, so wiring is flag-free.
type Recorder struct {
	mu     sync.Mutex
	path   string
	rounds ring.Ring[obs.RoundSnapshot]
}

// New builds a Recorder keeping the last n rounds (DefaultRounds
// when n <= 0) that Dump writes to path.
func New(n int, path string) *Recorder {
	if n <= 0 {
		n = DefaultRounds
	}
	if path == "" {
		path = "flight.json"
	}
	r := &Recorder{path: path}
	r.rounds.SetCap(n)
	return r
}

// Path returns the dump destination ("" for nil).
func (r *Recorder) Path() string {
	if r == nil {
		return ""
	}
	return r.path
}

// RecordRound implements obs.RoundSink.
func (r *Recorder) RecordRound(s obs.RoundSnapshot) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.rounds.Push(s)
	r.mu.Unlock()
}

// Dump writes the current window to the recorder's path atomically
// (tmp + rename), overwriting any previous dump. A nil Recorder
// dumps nothing and returns nil, so failure paths can call it
// unconditionally.
func (r *Recorder) Dump(reason, detail string) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	d := Dump{
		Reason:        reason,
		Detail:        detail,
		WrittenAt:     time.Now().UTC().Format(time.RFC3339Nano),
		RoundsDropped: r.rounds.Dropped(),
		Rounds:        r.rounds.Slice(),
	}
	r.mu.Unlock()

	tmp, err := os.CreateTemp(filepath.Dir(r.path), ".flight-*.json")
	if err != nil {
		return fmt.Errorf("flight: %w", err)
	}
	enc := json.NewEncoder(tmp)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("flight: encode: %w", err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("flight: %w", err)
	}
	if err := os.Rename(tmp.Name(), r.path); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("flight: %w", err)
	}
	return nil
}

// ServeHTTP exposes the recorder at /debug/flight: GET returns the
// current window as JSON; GET with ?save=1 additionally dumps it to
// the recorder's file (reason "http").
func (r *Recorder) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if r == nil {
		http.Error(w, "flight recorder disabled", http.StatusServiceUnavailable)
		return
	}
	if req.URL.Query().Get("save") != "" {
		if err := r.Dump("http", req.RemoteAddr); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	r.mu.Lock()
	rounds, dropped := r.rounds.Slice(), r.rounds.Dropped()
	r.mu.Unlock()
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	//gflint:ignore errdrop a client that hung up mid-response has no remedy
	enc.Encode(struct {
		Path          string              `json:"path"`
		RoundsDropped uint64              `json:"rounds_dropped"`
		Rounds        []obs.RoundSnapshot `json:"rounds"`
	}{r.path, dropped, rounds})
}

// ReadDump parses a flight dump file, for tooling and tests.
func ReadDump(path string) (*Dump, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("flight: %w", err)
	}
	var d Dump
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("flight: parse %s: %w", path, err)
	}
	return &d, nil
}
