package wire

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"gsso/internal/obs"
)

// RetryPolicy is capped exponential backoff with full jitter: the wait
// before re-attempt n is uniform in [0, min(MaxDelay, BaseDelay*2^(n-1))].
// MaxAttempts bounds the total attempts of one call (1 = no retries).
type RetryPolicy struct {
	MaxAttempts int
	BaseDelay   time.Duration
	MaxDelay    time.Duration
}

// DefaultRetryPolicy is the node default: three attempts, 25 ms base,
// 500 ms cap. A transient connection loss heals within one call without
// stretching a healthy call at all (the first attempt carries no wait).
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseDelay: 25 * time.Millisecond, MaxDelay: 500 * time.Millisecond}
}

// normalized fills zero fields with usable values.
func (p RetryPolicy) normalized() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 25 * time.Millisecond
	}
	if p.MaxDelay < p.BaseDelay {
		p.MaxDelay = p.BaseDelay
	}
	return p
}

// delay returns the backoff after the attempt-th failure (1-based), with
// u the jitter draw in [0, 1).
func (p RetryPolicy) delay(attempt int, u float64) time.Duration {
	ceil := p.MaxDelay
	if attempt < 32 {
		if exp := p.BaseDelay << (attempt - 1); exp < ceil && exp > 0 {
			ceil = exp
		}
	}
	return time.Duration(u * float64(ceil))
}

// permanentError marks failures retrying cannot fix: the remote answered,
// it just answered no (protocol errors, unexpected response types).
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// permanent wraps err as non-retryable.
func permanent(err error) error { return &permanentError{err: err} }

// isPermanent reports whether err (or anything it wraps) is permanent.
func isPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// withRetry runs op under pol. onRetry (nil ok) fires before each
// re-attempt; stop (nil ok) aborts the backoff wait. Permanent errors
// return immediately.
func withRetry(pol RetryPolicy, onRetry func(), stop <-chan struct{}, op func() error) error {
	pol = pol.normalized()
	for attempt := 1; ; attempt++ {
		err := op()
		if err == nil || isPermanent(err) {
			return err
		}
		if attempt >= pol.MaxAttempts {
			if pol.MaxAttempts > 1 {
				return fmt.Errorf("wire: %d attempts failed: %w", attempt, err)
			}
			return err
		}
		if onRetry != nil {
			onRetry()
		}
		if d := pol.delay(attempt, rand.Float64()); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-stop:
				t.Stop()
				return fmt.Errorf("wire: closed during retry: %w", err)
			}
		}
	}
}

// Failure-detector states, in the order exposed by the
// wire_breaker_state gauge.
const (
	breakerClosed   = 0 // healthy: calls flow
	breakerHalfOpen = 1 // cooled down: one probe call in flight
	breakerOpen     = 2 // tripped: calls fail fast
)

// breaker is a per-peer consecutive-failure circuit breaker with half-open
// probing: threshold consecutive call failures open it, open calls fail
// fast for cooldown, then a single probe call is let through — its outcome
// closes or re-opens the breaker.
type breaker struct {
	threshold int
	cooldown  time.Duration
	gauge     *obs.Gauge // wire_breaker_state{peer}; may be nil in tests

	mu    sync.Mutex
	state int
	fails int
	until time.Time // open expiry
}

func newBreaker(threshold int, cooldown time.Duration, gauge *obs.Gauge) *breaker {
	if threshold < 1 {
		threshold = 1
	}
	return &breaker{threshold: threshold, cooldown: cooldown, gauge: gauge}
}

// allow reports whether a call may proceed now. In the open state the
// first caller past the cooldown becomes the half-open probe; everyone
// else keeps failing fast until the probe settles.
func (b *breaker) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerHalfOpen:
		return false
	default:
		if !now.Before(b.until) {
			b.set(breakerHalfOpen)
			return true
		}
		return false
	}
}

// success records a completed call and closes the breaker.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	b.set(breakerClosed)
}

// failure records a failed call; it (re-)opens the breaker when the
// consecutive-failure budget is spent or the half-open probe failed.
func (b *breaker) failure(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.state == breakerHalfOpen || b.fails >= b.threshold {
		b.set(breakerOpen)
		b.until = now.Add(b.cooldown)
	}
}

func (b *breaker) set(state int) {
	b.state = state
	if b.gauge != nil {
		b.gauge.Set(float64(state))
	}
}

// snapshot returns the current state for tests and introspection.
func (b *breaker) snapshot() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
