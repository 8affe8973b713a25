package wire

import (
	"errors"
	"testing"
	"time"

	"gsso/internal/obs/span"
)

func TestRetryPolicyDelayJitterAndCap(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 40 * time.Millisecond}
	// Full jitter: u=0 gives zero wait, u→1 approaches the ceiling.
	if d := p.delay(1, 0); d != 0 {
		t.Fatalf("delay(1, 0) = %v", d)
	}
	if d := p.delay(1, 0.999); d > 10*time.Millisecond {
		t.Fatalf("attempt-1 ceiling exceeded: %v", d)
	}
	// Exponential growth: attempt 2 ceiling is 20ms, attempt 3 40ms.
	if d := p.delay(2, 0.999); d <= 10*time.Millisecond || d > 20*time.Millisecond {
		t.Fatalf("attempt-2 delay = %v", d)
	}
	// Capped: attempt 10 would be 10ms<<9 without the cap.
	if d := p.delay(10, 0.999); d > 40*time.Millisecond {
		t.Fatalf("cap exceeded: %v", d)
	}
	// Huge attempt numbers must not overflow the shift.
	if d := p.delay(400, 0.5); d > 40*time.Millisecond {
		t.Fatalf("overflow at large attempt: %v", d)
	}
}

func TestWithRetryStopsOnSuccessAndBudget(t *testing.T) {
	pol := RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}
	calls, retries := 0, 0
	err := withRetry(pol, func() { retries++ }, nil, func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 || retries != 2 {
		t.Fatalf("err=%v calls=%d retries=%d", err, calls, retries)
	}

	calls = 0
	err = withRetry(pol, nil, nil, func() error { calls++; return errors.New("always") })
	if err == nil || calls != 3 {
		t.Fatalf("budget not honored: err=%v calls=%d", err, calls)
	}
}

func TestWithRetryPermanentShortCircuits(t *testing.T) {
	pol := RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}
	calls := 0
	sentinel := errors.New("remote said no")
	err := withRetry(pol, nil, nil, func() error { calls++; return permanent(sentinel) })
	if calls != 1 {
		t.Fatalf("permanent error retried %d times", calls)
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("permanent wrapper hides the cause: %v", err)
	}
}

func TestWithRetryAbortsOnStop(t *testing.T) {
	pol := RetryPolicy{MaxAttempts: 100, BaseDelay: time.Hour, MaxDelay: time.Hour}
	stop := make(chan struct{})
	close(stop)
	start := time.Now()
	err := withRetry(pol, nil, stop, func() error { return errors.New("x") })
	if err == nil {
		t.Fatal("stopped retry returned success")
	}
	if time.Since(start) > time.Second {
		t.Fatal("stop did not abort the backoff wait")
	}
}

func TestBreakerLifecycle(t *testing.T) {
	b := newBreaker(3, 50*time.Millisecond, nil)
	now := time.Now()

	// Closed: calls flow; failures below threshold keep it closed.
	for i := 0; i < 2; i++ {
		if !b.allow(now) {
			t.Fatal("closed breaker blocked a call")
		}
		b.failure(now)
	}
	if b.snapshot() != breakerClosed {
		t.Fatal("opened below threshold")
	}
	// Third consecutive failure trips it.
	b.failure(now)
	if b.snapshot() != breakerOpen {
		t.Fatal("threshold did not open the breaker")
	}
	if b.allow(now) {
		t.Fatal("open breaker allowed a call inside the cooldown")
	}
	// After the cooldown exactly one probe goes through; others fail fast.
	later := now.Add(60 * time.Millisecond)
	if !b.allow(later) {
		t.Fatal("cooled-down breaker refused the half-open probe")
	}
	if b.snapshot() != breakerHalfOpen {
		t.Fatal("probe did not move the breaker to half-open")
	}
	if b.allow(later) {
		t.Fatal("second caller slipped through half-open")
	}
	// A failed probe re-opens with a fresh cooldown.
	b.failure(later)
	if b.snapshot() != breakerOpen || b.allow(later.Add(10*time.Millisecond)) {
		t.Fatal("failed probe did not re-open")
	}
	// A successful probe closes and resets the failure count.
	relater := later.Add(60 * time.Millisecond)
	if !b.allow(relater) {
		t.Fatal("re-cooled breaker refused the probe")
	}
	b.success()
	if b.snapshot() != breakerClosed {
		t.Fatal("success did not close the breaker")
	}
	b.failure(relater)
	b.failure(relater)
	if b.snapshot() != breakerClosed {
		t.Fatal("failure count survived the success reset")
	}
}

func TestNodeBreakerTripsAndRecovers(t *testing.T) {
	// A node dialing a dead peer trips its breaker after threshold calls,
	// then fails fast, and the wire_breaker_state gauge tracks it.
	nodes := cluster(t, 2, 1)
	n := nodes[0]
	n.opt.retry = RetryPolicy{MaxAttempts: 1}
	n.opt.breakerThreshold = 2
	n.opt.breakerCooldown = 50 * time.Millisecond
	dead := "127.0.0.1:1"

	for i := 0; i < 2; i++ {
		if _, _, err := n.rpc(span.Context{}, dead, Message{Type: MsgStore, Record: &Record{Addr: "x"}}, 200*time.Millisecond); err == nil {
			t.Fatal("store to dead peer succeeded")
		}
	}
	if _, _, err := n.rpc(span.Context{}, dead, Message{Type: MsgStore, Record: &Record{Addr: "x"}}, 200*time.Millisecond); !errors.Is(err, errBreakerOpen) {
		t.Fatalf("tripped breaker did not fail fast: %v", err)
	}
	if v, ok := n.Registry().Snapshot().Value("wire_breaker_state", dead); !ok || v != breakerOpen {
		t.Fatalf("wire_breaker_state{%s} = %v/%v, want %v", dead, v, ok, breakerOpen)
	}
	// After the cooldown (the breaker reads time as an argument) the
	// half-open probe reaches a live peer and the breaker closes again
	// (reuse the breaker against a live address).
	br := n.breakerFor(dead)
	if !br.allow(time.Now().Add(n.opt.breakerCooldown)) {
		t.Fatal("no half-open probe after cooldown")
	}
	br.success()
	if br.snapshot() != breakerClosed {
		t.Fatal("breaker did not close after successful probe")
	}
}

func TestRetriesMetricCounted(t *testing.T) {
	nodes := cluster(t, 2, 1)
	n := nodes[0]
	n.opt.retry = RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	if _, _, err := n.rpc(span.Context{}, "127.0.0.1:1", Message{Type: MsgStore, Record: &Record{Addr: "x"}}, 100*time.Millisecond); err == nil {
		t.Fatal("store to dead peer succeeded")
	}
	if v, _ := n.Registry().Snapshot().Value("wire_retries_total", "store"); v != 2 {
		t.Fatalf("wire_retries_total{store} = %v, want 2", v)
	}
}
