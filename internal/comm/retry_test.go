package comm

import (
	"fmt"
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
		BaseDelay: 10 * time.Millisecond, MaxDelay: 40 * time.Millisecond,
		JitterFrac: 0.2, Seed: 7,
	})
	for n := 1; n <= 10; n++ {
		d := r.delay(n)
		if d <= 0 {
			t.Fatalf("retry %d: non-positive delay %v", n, d)
		}
		if max := time.Duration(float64(40*time.Millisecond) * 1.2); d > max {
			t.Errorf("retry %d: delay %v above jittered cap %v", n, d, max)
		}
	}
	// Same seed, same jitter stream.
	r2 := NewRetrier(RetryPolicy{
		BaseDelay: 10 * time.Millisecond, MaxDelay: 40 * time.Millisecond,
		JitterFrac: 0.2, Seed: 7,
	})
	for n := 1; n <= 5; n++ {
		if a, b := r2.delay(n), r2.delay(n); a == b {
			// jitter streams advance per call; equal values would mean
			// the stream is stuck
			t.Errorf("retry %d: jitter stream did not advance (%v)", n, a)
		}
	}
}
