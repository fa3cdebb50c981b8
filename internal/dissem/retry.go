package dissem

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"
)

// Fetch retry with bounded exponential backoff. A fleet verifier polls
// many collector processes over HTTP; any of them can be restarting,
// overloaded, or briefly unreachable, and the poll loop must neither
// give up on the first refused connection nor spin forever against a
// dead peer. Retry wraps one fetch attempt in a fixed budget of
// retries with exponential backoff between them — after the budget is
// exhausted the caller gets a typed RetryBudgetError and decides
// (typically: surface the collector as failed), never an unbounded
// loop.
//
// The backoff is deterministic (no jitter): each fleet process polls
// its own peer set on its own schedule, so synchronized-retry
// stampedes are not a failure mode here, and the dissemination layer
// keeps the repo-wide discipline that identical runs behave
// identically.

// RetryPolicy bounds a retried operation: at most Attempts tries, with
// Base, 2·Base, 4·Base, ... waits between them, capped at Max.
type RetryPolicy struct {
	// Attempts is the total try budget (first try included); values
	// below 1 behave as 1 — a single try, no retry.
	Attempts int
	// Base is the wait before the first retry; it doubles per retry.
	Base time.Duration
	// Max caps the per-retry wait; 0 means uncapped.
	Max time.Duration
}

// DefaultRetryPolicy is the fleet fetch budget: 5 tries spanning about
// three seconds of backoff — long enough to ride out a collector
// restart, short enough that a dead peer surfaces within one epoch at
// operational interval lengths.
var DefaultRetryPolicy = RetryPolicy{Attempts: 5, Base: 200 * time.Millisecond, Max: 2 * time.Second}

// wait returns the backoff before retry number n (n = 1 is the first
// retry): Base·2^(n-1), saturating at Max, or at the largest Duration
// when the policy is uncapped — never wrapping to a shorter wait.
func (p RetryPolicy) wait(n int) time.Duration {
	limit := p.Max
	if limit <= 0 {
		limit = math.MaxInt64
	}
	if p.Base > limit>>(n-1) { // Base·2^(n-1) would pass limit
		return limit
	}
	return p.Base << (n - 1)
}

// RetryBudgetError reports an operation that failed on every try of
// its retry budget. It wraps the last attempt's error.
type RetryBudgetError struct {
	// Attempts is how many tries were made before giving up.
	Attempts int
	// Err is the last attempt's error.
	Err error
}

func (e *RetryBudgetError) Error() string {
	return fmt.Sprintf("dissem: giving up after %d attempts: %v", e.Attempts, e.Err)
}

func (e *RetryBudgetError) Unwrap() error { return e.Err }

// PermanentError marks an error no retry can fix — a signature
// mismatch, a malformed bundle — so Retry stops immediately instead of
// burning the rest of its budget. Wrap with Permanent.
type PermanentError struct {
	Err error
}

func (e *PermanentError) Error() string { return e.Err.Error() }

func (e *PermanentError) Unwrap() error { return e.Err }

// Permanent wraps err so Retry treats it as non-retryable. A nil err
// stays nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &PermanentError{Err: err}
}

// Retry runs op under the policy's budget: on error it backs off and
// tries again, until op succeeds, the budget is exhausted, op returns
// a PermanentError, or ctx is done. It returns nil on success; a
// *RetryBudgetError wrapping the last error once the budget is spent;
// the unwrapped permanent error as soon as op marks one; or the
// context's error if cancellation interrupts a backoff wait (errors
// match with errors.As / errors.Is).
func Retry(ctx context.Context, p RetryPolicy, op func() error) error {
	attempts := p.Attempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for try := 1; ; try++ {
		err := op()
		if err == nil {
			return nil
		}
		var perm *PermanentError
		if errors.As(err, &perm) {
			return perm.Err
		}
		lastErr = err
		if try >= attempts {
			return &RetryBudgetError{Attempts: try, Err: lastErr}
		}
		if ctx != nil {
			timer := time.NewTimer(p.wait(try))
			select {
			case <-ctx.Done():
				timer.Stop()
				return &RetryBudgetError{Attempts: try, Err: ctx.Err()}
			case <-timer.C:
			}
		} else {
			time.Sleep(p.wait(try))
		}
	}
}
