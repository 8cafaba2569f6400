package faults

import (
	"repro/internal/gpu"
	"repro/internal/simclock"
)

// Breaker is the per-server quarantine circuit breaker: a server
// observed failing k times within a sliding window is quarantined —
// excluded from placement and backfill — until a cool-off expires.
// Quarantine is scheduler-side state layered on top of the physical
// timeline: a server can be healthy again (up) yet still quarantined.
//
// State machine per server:
//
//	closed --(k-th failure within window)--> open (quarantined)
//	open   --(cool-off elapsed)-----------> closed, history cleared
//
// Disabled (k == 0) breakers never trip.
type Breaker struct {
	k       int
	window  simclock.Duration
	cooloff simclock.Duration

	history map[gpu.ServerID][]simclock.Time // recent failure times, ascending
	until   map[gpu.ServerID]simclock.Time   // quarantined until, if present
	quar    gpu.ServerSet                    // until's servers
}

// NewBreaker builds a breaker from the config (defaults applied).
func NewBreaker(cfg Config) *Breaker {
	cfg = cfg.WithDefaults()
	return &Breaker{
		k:       cfg.QuarantineFailures,
		window:  cfg.QuarantineWindowHours * simclock.Hour,
		cooloff: cfg.QuarantineCooloffHours * simclock.Hour,
		history: make(map[gpu.ServerID][]simclock.Time),
		until:   make(map[gpu.ServerID]simclock.Time),
	}
}

// NoteFailure records a failure observation for sid at time now and
// reports whether the breaker newly tripped. Failures observed while
// already quarantined extend nothing and are dropped (the server is
// not placeable anyway).
func (b *Breaker) NoteFailure(sid gpu.ServerID, now simclock.Time) bool {
	if b.k <= 0 {
		return false
	}
	if _, q := b.until[sid]; q {
		return false
	}
	h := append(b.history[sid], now)
	lo := 0
	for lo < len(h) && h[lo] <= now.Add(-b.window) {
		lo++
	}
	h = h[lo:]
	b.history[sid] = h
	if len(h) < b.k {
		return false
	}
	delete(b.history, sid)
	b.until[sid] = now.Add(b.cooloff)
	b.quar.Add(sid)
	return true
}

// ExpireStep releases servers whose cool-off has elapsed by now and
// returns them in ascending server-ID order. Call once per round
// before noting new failures.
func (b *Breaker) ExpireStep(now simclock.Time) []gpu.ServerID {
	if len(b.until) == 0 {
		return nil
	}
	var freed []gpu.ServerID
	b.quar.ForEach(func(sid gpu.ServerID) bool {
		if b.until[sid] <= now {
			freed = append(freed, sid)
			delete(b.until, sid)
			b.quar.Remove(sid)
		}
		return true
	})
	return freed
}

// Set returns the quarantined servers: the breaker's own set, updated in
// place by NoteFailure and ExpireStep.
//
//gflint:noretain
func (b *Breaker) Set() *gpu.ServerSet { return &b.quar }
