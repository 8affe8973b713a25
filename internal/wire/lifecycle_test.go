package wire

import (
	"sync"
	"testing"
	"time"
)

// These tests exist for `go test -race ./internal/wire`: node lifecycle
// under concurrency — Close racing StartRefresh ticks, in-flight handle
// goroutines, and concurrent double-Close.

func TestCloseRacesRefreshAndHandlers(t *testing.T) {
	nodes := cluster(t, 3, 2)
	target := nodes[2]
	target.StartRefresh(2*time.Millisecond, 1, 500*time.Millisecond)

	// Hammer the node with requests while it refreshes...
	stop := make(chan struct{})
	var clients sync.WaitGroup
	for i := 0; i < 4; i++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _ = call(target.Addr(), Message{Type: MsgPing}, 200*time.Millisecond)
				_, _ = call(target.Addr(), Message{Type: MsgQuery, Number: 7, Max: 4}, 200*time.Millisecond)
			}
		}()
	}
	time.Sleep(30 * time.Millisecond)

	// ...then close from several goroutines at once, mid-traffic.
	var closers sync.WaitGroup
	for i := 0; i < 3; i++ {
		closers.Add(1)
		go func() {
			defer closers.Done()
			if err := target.Close(); err != nil {
				t.Error(err)
			}
		}()
	}
	closers.Wait()
	close(stop)
	clients.Wait()

	// Idempotent after the concurrent storm too.
	if err := target.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseDuringRetryBackoff(t *testing.T) {
	// A node stuck in a long retry backoff (dead landmark) must not stall
	// Close: the stop channel aborts the wait between attempts.
	cfg := testConfig([]string{"127.0.0.1:1"})
	n, err := NewNode("127.0.0.1:0", cfg, nil, time.Minute,
		WithRetryPolicy(RetryPolicy{MaxAttempts: 50, BaseDelay: time.Second, MaxDelay: 10 * time.Second}))
	if err != nil {
		t.Fatal(err)
	}
	n.StartRefresh(time.Millisecond, 1, 100*time.Millisecond)
	time.Sleep(20 * time.Millisecond) // let a refresh enter its backoff

	done := make(chan error, 1)
	go func() { done <- n.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a refresh goroutine in retry backoff")
	}
}
