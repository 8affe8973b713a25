package wire

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gsso/internal/obs/span"
)

// testPair starts a plain server and client node for transport tests.
func testPair(t *testing.T) (*Node, *Node) {
	t.Helper()
	server, err := NewNode("127.0.0.1:0", stubCfg(), nil, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = server.Close() })
	client, err := NewNode("127.0.0.1:0", stubCfg(), nil, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	return server, client
}

// metric reads one single-series family value from a node's registry.
func metric(t testing.TB, n *Node, name string) float64 {
	t.Helper()
	v, _ := n.Registry().Snapshot().Value(name)
	return v
}

// TestTransportReusesConnections: steady-state calls ride the pool
// instead of dialing — dials stay bounded by the pool size while reuse
// counts the rest.
func TestTransportReusesConnections(t *testing.T) {
	server, client := testPair(t)
	const calls = 50
	for i := 0; i < calls; i++ {
		if _, err := client.ping(span.Context{}, server.Addr(), time.Second); err != nil {
			t.Fatal(err)
		}
	}
	dials := metric(t, client, "wire_conn_dials_total")
	reuse := metric(t, client, "wire_conn_reuse_total")
	if dials > float64(client.opt.poolSize) {
		t.Fatalf("%v dials for %d calls (pool size %d) — transport is not pooling", dials, calls, client.opt.poolSize)
	}
	if reuse < calls-float64(client.opt.poolSize) {
		t.Fatalf("only %v reuses for %d calls", reuse, calls)
	}
	if open := client.tr.Open(server.Addr()); open < 1 || open > client.opt.poolSize {
		t.Fatalf("pool holds %d conns, want 1..%d", open, client.opt.poolSize)
	}
	if v := metric(t, client, "wire_conns_open"); v != float64(client.tr.Open(server.Addr())) {
		t.Fatalf("wire_conns_open = %v, pool reports %d", v, client.tr.Open(server.Addr()))
	}
}

// TestTransportMultiplexesOneConnection: a pool of one connection still
// serves many concurrent in-flight requests — responses are matched by
// Seq, not by turn-taking on the socket.
func TestTransportMultiplexesOneConnection(t *testing.T) {
	server, err := NewNode("127.0.0.1:0", stubCfg(), nil, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := NewNode("127.0.0.1:0", stubCfg(), nil, time.Minute, WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	exp := time.Now().Add(time.Hour).UnixMilli()
	const records = 32
	for i := 0; i < records; i++ {
		rec := Record{Addr: fmt.Sprintf("r%d:1", i), Number: uint64(i * 1000), ExpiresUnixMilli: exp}
		if _, err := call(server.Addr(), Message{Type: MsgStore, Record: &rec}, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errc := make(chan error, records)
	for i := 0; i < records; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _, err := client.rpc(span.Context{}, server.Addr(), Message{Type: MsgQuery, Number: uint64(i * 1000), Max: 1}, 2*time.Second)
			recs := resp.Records
			if err != nil {
				errc <- err
				return
			}
			if len(recs) != 1 || recs[0].Addr != fmt.Sprintf("r%d:1", i) {
				errc <- fmt.Errorf("query %d answered with %+v — response crossed to the wrong caller", i, recs)
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if dials := metric(t, client, "wire_conn_dials_total"); dials != 1 {
		t.Fatalf("%v dials with pool size 1", dials)
	}
}

// TestBreakerOpenEvictsPool: when a peer's breaker opens, its pooled
// connections are torn down — stale connections to a crashed peer must
// not linger for the half-open probe to trip over.
func TestBreakerOpenEvictsPool(t *testing.T) {
	server, err := NewNode("127.0.0.1:0", stubCfg(), nil, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewNode("127.0.0.1:0", stubCfg(), nil, time.Minute,
		WithRetryPolicy(RetryPolicy{MaxAttempts: 1}),
		WithBreaker(2, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	addr := server.Addr()

	if _, err := client.ping(span.Context{}, addr, time.Second); err != nil {
		t.Fatal(err)
	}
	if client.tr.Open(addr) == 0 {
		t.Fatal("no pooled connection after a successful call")
	}
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}
	// Two failed calls trip the threshold-2 breaker; the open transition
	// must evict whatever the pool still holds.
	for i := 0; i < 2; i++ {
		if _, err := client.ping(span.Context{}, addr, 200*time.Millisecond); err == nil {
			t.Fatal("ping to closed server succeeded")
		}
	}
	if got := client.breakerFor(addr).snapshot(); got != breakerOpen {
		t.Fatalf("breaker state = %d, want open", got)
	}
	if open := client.tr.Open(addr); open != 0 {
		t.Fatalf("pool still holds %d conns to the dead peer", open)
	}
	// While open, calls fail fast without dialing.
	dials := metric(t, client, "wire_conn_dials_total")
	if _, err := client.ping(span.Context{}, addr, time.Second); !errors.Is(err, errBreakerOpen) {
		t.Fatalf("ping with open breaker = %v, want breaker-open", err)
	}
	if after := metric(t, client, "wire_conn_dials_total"); after != dials {
		t.Fatal("open breaker still dialed the dead peer")
	}
}

// TestTransportClosedRejectsCalls: a closed transport fails calls
// instead of dialing.
func TestTransportClosedRejectsCalls(t *testing.T) {
	server, client := testPair(t)
	if _, err := client.ping(span.Context{}, server.Addr(), time.Second); err != nil {
		t.Fatal(err)
	}
	client.tr.Close()
	if _, err := client.tr.RoundTrip(server.Addr(), Message{Type: MsgPing}, time.Second); !errors.Is(err, errTransportClosed) {
		t.Fatalf("RoundTrip on closed transport = %v", err)
	}
	if open := client.tr.Open(server.Addr()); open != 0 {
		t.Fatalf("closed transport still holds %d conns", open)
	}
}

// TestTransportRaceHammer is the pooled transport's churn soak, meant
// for -race: concurrent RPCs from many goroutines multiplexed over a
// small pool, while a second peer crashes and restarts and its breaker
// trips and recovers. Every query response must belong to the request
// that asked (distinct Number → distinct record), no matter what the
// crashing peer does to the pool; afterwards the pool must hold no
// stale connection to the crashed peer — evicted, not retried forever.
func TestTransportRaceHammer(t *testing.T) {
	steady, err := NewNode("127.0.0.1:0", stubCfg(), nil, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer steady.Close()
	flaky, err := NewNode("127.0.0.1:0", stubCfg(), nil, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	flakyAddr := flaky.Addr()
	client, err := NewNode("127.0.0.1:0", stubCfg(), nil, time.Minute,
		WithPoolSize(2),
		WithRetryPolicy(RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}),
		WithBreaker(3, 30*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	exp := time.Now().Add(time.Hour).UnixMilli()
	const records = 16
	for i := 0; i < records; i++ {
		rec := Record{Addr: fmt.Sprintf("r%d:1", i), Number: uint64(i * 1000), ExpiresUnixMilli: exp}
		if _, err := call(steady.Addr(), Message{Type: MsgStore, Record: &rec}, time.Second); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var crossed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				want := (g*7 + i) % records
				resp, _, err := client.rpc(span.Context{}, steady.Addr(), Message{Type: MsgQuery, Number: uint64(want * 1000), Max: 1}, time.Second)
				recs := resp.Records
				if err != nil {
					continue // transient: pool churn from the flaky peer's failures
				}
				if len(recs) != 1 || recs[0].Addr != fmt.Sprintf("r%d:1", want) {
					crossed.Add(1)
					return
				}
				// Calls to the flaky peer fail and trip the breaker while
				// it is down; that must never corrupt the steady peer's
				// multiplexing above.
				_, _ = client.ping(span.Context{}, flakyAddr, 50*time.Millisecond)
			}
		}(g)
	}

	// Crash and restart the flaky peer a few times mid-traffic.
	for round := 0; round < 3; round++ {
		time.Sleep(30 * time.Millisecond)
		if err := flaky.Close(); err != nil {
			t.Error(err)
		}
		time.Sleep(50 * time.Millisecond)
		flaky, err = NewNode(flakyAddr, stubCfg(), nil, time.Minute)
		if err != nil {
			t.Fatalf("restart %d: %v", round, err)
		}
		time.Sleep(30 * time.Millisecond)
	}
	// Final crash: leave it down.
	if err := flaky.Close(); err != nil {
		t.Error(err)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	if n := crossed.Load(); n != 0 {
		t.Fatalf("%d responses delivered to the wrong request", n)
	}
	// The dead peer's connections must be gone once its failures settle:
	// either its breaker is open (evicting on the transition) or every
	// transport error already closed its conn.
	deadline := time.Now().Add(2 * time.Second)
	for client.tr.Open(flakyAddr) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pool still holds %d stale conns to the crashed peer", client.tr.Open(flakyAddr))
		}
		time.Sleep(10 * time.Millisecond)
	}
	// And the steady peer kept its pool healthy throughout.
	if _, err := client.ping(span.Context{}, steady.Addr(), time.Second); err != nil {
		t.Fatalf("steady peer unreachable after the storm: %v", err)
	}
}
