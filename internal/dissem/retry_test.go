package dissem

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// fastRetry keeps test backoffs in the microsecond range.
var fastRetry = RetryPolicy{Attempts: 4, Base: time.Microsecond, Max: 10 * time.Microsecond}

// flappingServer wraps a real bundle server behind a handler that
// fails the first failN requests with 503 — the collector-restarting
// window a fleet verifier must ride out.
func flappingServer(t *testing.T, failN int64) (*httptest.Server, *Client, *int64) {
	t.Helper()
	signer := NewSigner(seedOf(9))
	srv := NewServer(7, signer)
	srv.PublishEpoch(0, sampleBundle(7, 0).Samples, sampleBundle(7, 0).Aggs)
	srv.PublishEpoch(1, sampleBundle(7, 1).Samples, nil)
	var requests int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt64(&requests, 1) <= failN {
			http.Error(w, "restarting", http.StatusServiceUnavailable)
			return
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(hs.Close)
	client := &Client{Registry: Registry{7: signer.Public()}}
	return hs, client, &requests
}

func TestRetryRidesOutFlappingServer(t *testing.T) {
	hs, client, requests := flappingServer(t, 2)
	ctx := context.Background()
	var got int
	err := Retry(ctx, fastRetry, func() error {
		got = 0
		_, err := client.FetchEach(ctx, hs.URL, 7, 0, func(b *Bundle) error {
			got++
			return nil
		})
		return err
	})
	if err != nil {
		t.Fatalf("retry over flapping server: %v", err)
	}
	if got != 2 {
		t.Fatalf("fetched %d bundles, want 2", got)
	}
	if n := atomic.LoadInt64(requests); n != 3 {
		t.Fatalf("server saw %d requests, want 3 (2 failures + 1 success)", n)
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	hs, client, requests := flappingServer(t, 1<<30) // never recovers
	ctx := context.Background()
	err := Retry(ctx, fastRetry, func() error {
		_, err := client.FetchEach(ctx, hs.URL, 7, 0, func(*Bundle) error { return nil })
		return err
	})
	var budget *RetryBudgetError
	if !errors.As(err, &budget) {
		t.Fatalf("want *RetryBudgetError, got %v", err)
	}
	if budget.Attempts != fastRetry.Attempts {
		t.Fatalf("gave up after %d attempts, want %d", budget.Attempts, fastRetry.Attempts)
	}
	if budget.Err == nil {
		t.Fatal("budget error does not wrap the last attempt's error")
	}
	// The loop is bounded: exactly one request per budgeted attempt.
	if n := atomic.LoadInt64(requests); n != int64(fastRetry.Attempts) {
		t.Fatalf("server saw %d requests, want %d", n, fastRetry.Attempts)
	}
}

func TestRetryStopsOnPermanentError(t *testing.T) {
	sigErr := fmt.Errorf("signature mismatch")
	tries := 0
	err := Retry(context.Background(), fastRetry, func() error {
		tries++
		return Permanent(sigErr)
	})
	if !errors.Is(err, sigErr) {
		t.Fatalf("want the permanent error back, got %v", err)
	}
	if tries != 1 {
		t.Fatalf("permanent error retried %d times, want 1", tries)
	}
	if Permanent(nil) != nil {
		t.Fatal("Permanent(nil) must stay nil")
	}
}

func TestRetryContextCancelDuringBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	slow := RetryPolicy{Attempts: 3, Base: time.Hour}
	tries := 0
	done := make(chan error, 1)
	go func() {
		done <- Retry(ctx, slow, func() error {
			tries++
			return fmt.Errorf("down")
		})
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		var budget *RetryBudgetError
		if !errors.As(err, &budget) || !errors.Is(err, context.Canceled) {
			t.Fatalf("want budget error wrapping context.Canceled, got %v", err)
		}
		if tries != 1 {
			t.Fatalf("ran %d tries, want 1 (cancel hit during first backoff)", tries)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retry did not observe context cancellation")
	}
}

func TestRetryPolicyBackoffCaps(t *testing.T) {
	p := RetryPolicy{Attempts: 10, Base: 100 * time.Millisecond, Max: 300 * time.Millisecond}
	if d := p.wait(1); d != 100*time.Millisecond {
		t.Fatalf("wait(1) = %v", d)
	}
	if d := p.wait(2); d != 200*time.Millisecond {
		t.Fatalf("wait(2) = %v", d)
	}
	if d := p.wait(3); d != 300*time.Millisecond {
		t.Fatalf("wait(3) = %v, want capped at Max", d)
	}
	if d := p.wait(62); d != 300*time.Millisecond {
		t.Fatalf("wait(62) = %v, want Max after shift overflow", d)
	}
}

// TestRetryBackoffSaturates: past the retry where Base·2^(n-1)
// overflows a Duration (37 at the default 200 ms base), the wait
// saturates — at Max, or at the largest Duration when uncapped — and
// never wraps to zero or to a shorter wait.
func TestRetryBackoffSaturates(t *testing.T) {
	for _, limit := range []time.Duration{0, 2 * time.Second} {
		p := RetryPolicy{Attempts: 1000, Base: DefaultRetryPolicy.Base, Max: limit}
		var prev time.Duration
		for _, n := range []int{1, 36, 37, 38, 64, 65, 200} {
			d := p.wait(n)
			if d <= 0 || d < prev {
				t.Errorf("Max %v: wait(%d) = %v after %v; want non-zero and no shorter", limit, n, d, prev)
			}
			prev = d
		}
		if limit > 0 && prev != limit {
			t.Errorf("Max %v: wait(200) = %v, want Max", limit, prev)
		}
	}
}
