package comm

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// flakyTransport fails the first n Sends, then delegates to the
// wrapped transport.
type flakyTransport struct {
	Transport
	mu       sync.Mutex
	failures int
	sends    int
}

func (f *flakyTransport) Send(to string, e Envelope) error {
	f.mu.Lock()
	f.sends++
	fail := f.sends <= f.failures
	f.mu.Unlock()
	if fail {
		return fmt.Errorf("flaky: injected failure %d", f.sends)
	}
	return f.Transport.Send(to, e)
}

func TestRetrierRecoversFromTransientFailure(t *testing.T) {
	hub := NewHub()
	a, _ := hub.Attach("a")
	b, _ := hub.Attach("b")
	fl := &flakyTransport{Transport: a, failures: 2}

	var retries []int
	r := NewRetrier(RetryPolicy{
		MaxAttempts: 4, BaseDelay: time.Microsecond,
		Sleep:   func(time.Duration) {},
		OnRetry: func(n int, err error) { retries = append(retries, n) },
	})
	if err := r.Send(fl, "b", Envelope{From: "a", Msg: Register{Agent: "a"}}); err != nil {
		t.Fatalf("send after transient failures: %v", err)
	}
	if len(retries) != 2 {
		t.Errorf("retried %d times, want 2", len(retries))
	}
	select {
	case env := <-b.Recv():
		if env.From != "a" {
			t.Errorf("delivered from %q", env.From)
		}
	default:
		t.Fatal("message never delivered")
	}
}

func TestRetrierGivesUpAfterMaxAttempts(t *testing.T) {
	hub := NewHub()
	a, _ := hub.Attach("a")
	fl := &flakyTransport{Transport: a, failures: 1 << 30}
	r := NewRetrier(RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) {}})
	err := r.Send(fl, "nobody", Envelope{From: "a", Msg: Shutdown{}})
	if err == nil {
		t.Fatal("send to permanently failing transport succeeded")
	}
	if fl.sends != 3 {
		t.Errorf("made %d attempts, want 3", fl.sends)
	}
}

// TestRetrierRefusesUnsealable: every envelope a Retrier sends is sealed
// and sequenced, so a payload Checksum does not cover is a send error
// and nothing reaches the wire — not even a first attempt.
func TestRetrierRefusesUnsealable(t *testing.T) {
	hub := NewHub()
	a, _ := hub.Attach("a")
	b, _ := hub.Attach("b")
	fl := &flakyTransport{Transport: a}
	r := NewRetrier(RetryPolicy{Sleep: func(time.Duration) {}})
	for _, m := range []Message{nil, "text", &RoundPlan{}, struct{ X int }{1}} {
		if err := r.Send(fl, "b", Envelope{From: "a", Msg: m}); err == nil {
			t.Errorf("Retrier sent an unsealable %T", m)
		}
	}
	if fl.sends != 0 {
		t.Errorf("%d attempts reached the transport, want 0", fl.sends)
	}
	// The refused sends burnt no sequence number: the next one is the
	// first.
	if err := r.Send(fl, "b", Envelope{From: "a", Msg: Shutdown{}}); err != nil {
		t.Fatal(err)
	}
	if env := <-b.Recv(); env.Seq != 1 || !Verify(env) {
		t.Errorf("first sealed send arrived as %+v, want seq 1 and sealed", env)
	}
}

func TestRetrierBackoffCappedAndJittered(t *testing.T) {
	r := NewRetrier(RetryPolicy{
		BaseDelay: 10 * time.Millisecond, MaxDelay: 40 * time.Millisecond, Seed: 7,
	})
	for n := 1; n <= 10; n++ {
		d := r.delay(n)
		if d <= 0 {
			t.Fatalf("retry %d: non-positive delay %v", n, d)
		}
		if max := time.Duration(float64(40*time.Millisecond) * (1 + jitterFrac)); d > max {
			t.Errorf("retry %d: delay %v above jittered cap %v", n, d, max)
		}
	}
	// Same seed, same jitter stream.
	r2 := NewRetrier(RetryPolicy{
		BaseDelay: 10 * time.Millisecond, MaxDelay: 40 * time.Millisecond, Seed: 7,
	})
	for n := 1; n <= 5; n++ {
		if a, b := r2.delay(n), r2.delay(n); a == b {
			// jitter streams advance per call; equal values would mean
			// the stream is stuck
			t.Errorf("retry %d: jitter stream did not advance (%v)", n, a)
		}
	}
}

// jitteredDelays is the delay sequence a Retrier with policy pol owes
// retries 1..n, drawn from a fresh rand.New(rand.NewSource(seed)).
func jitteredDelays(pol RetryPolicy, seed int64, n int) []time.Duration {
	pol = pol.withDefaults()
	ref := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	for i := range out {
		d := min(pol.BaseDelay<<uint(i), pol.MaxDelay)
		out[i] = time.Duration(float64(d) * (1 + jitterFrac*(2*ref.Float64()-1)))
	}
	return out
}

// TestRetrierJitterIsSeededStream: the jitter stream, seeded at the
// first retry, is the policy seed's stream from its first draw — the
// sequence a Retrier seeded at construction drew — through Send's
// sleeps and through delay alike; a zero seed means seed 1.
func TestRetrierJitterIsSeededStream(t *testing.T) {
	for _, seed := range []int64{0, 7, 42} {
		var slept []time.Duration
		pol := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 40 * time.Millisecond, Seed: seed,
			Sleep: func(d time.Duration) { slept = append(slept, d) }}
		hub := NewHub()
		if _, err := hub.Attach("b"); err != nil {
			t.Fatal(err)
		}
		from, _ := hub.Attach("a")
		tr := &flakyTransport{Transport: from, failures: 3}
		r := NewRetrier(pol)
		if err := r.Send(tr, "b", Envelope{From: "a", Msg: Register{Agent: "a"}}); err != nil {
			t.Fatal(err)
		}
		for n := 4; n <= 8; n++ {
			slept = append(slept, r.delay(n))
		}
		want := jitteredDelays(pol, max(seed, 1), 8)
		if !slices.Equal(slept, want) {
			t.Errorf("seed %d: delays %v, want the fresh stream's %v", seed, slept, want)
		}
	}
}

// TestRetrierJitterSharedAcrossGoroutines: concurrent retries seed the
// stream once and share it; together they draw exactly its first
// values. Run under -race.
func TestRetrierJitterSharedAcrossGoroutines(t *testing.T) {
	const workers, each = 8, 16
	pol := RetryPolicy{BaseDelay: time.Second, MaxDelay: time.Second, Seed: 3}
	r := NewRetrier(pol)
	got := make([][]time.Duration, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				got[w] = append(got[w], r.delay(1))
			}
		}()
	}
	wg.Wait()
	all := slices.Concat(got...)
	slices.Sort(all)
	want := make([]time.Duration, workers*each)
	ref := rand.New(rand.NewSource(3))
	for i := range want {
		want[i] = time.Duration(float64(time.Second) * (1 + 0.2*(2*ref.Float64()-1)))
	}
	slices.Sort(want)
	if !slices.Equal(all, want) {
		t.Errorf("concurrent delays are not the stream's first %d draws", len(want))
	}
}

// TestNewRetrierAllocBytesCeiling: a Retrier that never retries never
// seeds its jitter stream, so building one costs its struct and its
// sequence table, not the ≈5 KiB of a seeded math/rand source.
func TestNewRetrierAllocBytesCeiling(t *testing.T) {
	const n, ceiling = 200, 512
	var before, after runtime.MemStats
	keep := make([]*Retrier, n)
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = NewRetrier(RetryPolicy{Seed: int64(i)})
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("NewRetrier: %d B allocated per call (ceiling %d)", per, ceiling)
	if per > ceiling {
		t.Errorf("NewRetrier allocates %d B per call, ceiling %d", per, ceiling)
	}
	runtime.KeepAlive(keep)
}
