package comm

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// RetryPolicy parameterizes Retrier: capped exponential backoff with
// deterministic jitter around Transport.Send. The zero value is
// usable and means "use the defaults below".
type RetryPolicy struct {
	// MaxAttempts is the total number of Send attempts, including the
	// first (default 4). 1 disables retrying.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 10ms);
	// it doubles per retry up to MaxDelay (default 500ms).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed seeds the jitter stream (default 1): each delay is
	// perturbed by ±jitterFrac of itself, so retry storms decorrelate
	// but tests stay reproducible.
	Seed int64

	// SeqBase offsets the per-destination sequence numbers this
	// Retrier stamps onto outbound envelopes (the first send to a
	// destination carries SeqBase+1). Epoch-scoped senders — a
	// restarted central — set it so a new incarnation's sequence space
	// never collides with its predecessor's at receivers that kept
	// their dedup history.
	SeqBase uint64

	// Sleep is a test hook; nil means time.Sleep.
	Sleep func(time.Duration)
	// OnRetry, if set, observes every retry (attempt numbers the
	// failed attempt, starting at 1) before the backoff sleep.
	OnRetry func(attempt int, err error)
}

// jitterFrac is the relative half-width of each delay's jitter.
const jitterFrac = 0.2

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 10 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 500 * time.Millisecond
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// Retrier wraps Transport.Send with the policy's backoff. It is safe
// for concurrent use; the jitter stream is shared and mutex-guarded.
type Retrier struct {
	pol RetryPolicy
	mu  sync.Mutex
	rng *rand.Rand        // the jitter stream, seeded at the first retry
	seq map[string]uint64 // per-destination sequence counters
}

// NewRetrier builds a Retrier; zero-value fields of pol take the
// documented defaults.
func NewRetrier(pol RetryPolicy) *Retrier {
	return &Retrier{pol: pol.withDefaults(), seq: make(map[string]uint64)}
}

// delay returns the jittered backoff before retry number n (1-based).
// The jitter stream is seeded from the policy on first use, so a
// Retrier that never retries never pays for it, and one that does
// draws the same sequence as one seeded at construction.
func (r *Retrier) delay(n int) time.Duration {
	d := r.pol.BaseDelay << uint(n-1)
	if d > r.pol.MaxDelay || d <= 0 { // <=0 guards shift overflow
		d = r.pol.MaxDelay
	}
	r.mu.Lock()
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(r.pol.Seed))
	}
	f := 1 + jitterFrac*(2*r.rng.Float64()-1)
	r.mu.Unlock()
	return time.Duration(float64(d) * f)
}

// Send attempts tr.Send up to MaxAttempts times, backing off between
// attempts. It returns the last error when every attempt fails.
//
// Send seals the envelope with the payload checksum and stamps it with
// the next per-destination sequence number. Both happen once, before
// the first attempt, so every retry of one logical send carries the
// same Seq — a retry that races a slow first delivery is detected as a
// duplicate at the receiver, never applied twice. A payload Checksum
// does not cover is refused before anything is sent.
func (r *Retrier) Send(tr Transport, to string, e Envelope) error {
	e, err := Seal(e)
	if err != nil {
		return fmt.Errorf("comm: send to %q: %w", to, err)
	}
	r.mu.Lock()
	r.seq[to]++
	e.Seq = r.pol.SeqBase + r.seq[to]
	r.mu.Unlock()
	for attempt := 1; ; attempt++ {
		if err = tr.Send(to, e); err == nil {
			return nil
		}
		if attempt >= r.pol.MaxAttempts {
			return fmt.Errorf("comm: send to %q failed after %d attempts: %w", to, attempt, err)
		}
		if r.pol.OnRetry != nil {
			r.pol.OnRetry(attempt, err)
		}
		r.pol.Sleep(r.delay(attempt))
	}
}
