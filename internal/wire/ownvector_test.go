package wire

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The own-vector cache: Publish and FindNearest reuse the node's last
// complete landmark measurement for one refresh interval. Every test here
// counts the pings the landmark nodes served, so "measured again" and
// "reused" are exact, not timed.

// startLandmarks starts k landmark nodes outside any ring.
func startLandmarks(t *testing.T, k int) ([]*Node, []string) {
	t.Helper()
	lms := make([]*Node, k)
	addrs := make([]string, k)
	for i := range lms {
		lms[i] = startNode(t, stubCfg(), nil)
		addrs[i] = lms[i].Addr()
	}
	return lms, addrs
}

// landmarkPings sums the pings the landmark nodes have served.
func landmarkPings(lms []*Node) int {
	total := 0.0
	for _, lm := range lms {
		v, _ := lm.Registry().Snapshot().Value("wire_requests_total", "ping")
		total += v
	}
	return int(total)
}

func newTestNode(t *testing.T, cfg SpaceConfig, opts ...NodeOption) *Node {
	t.Helper()
	n, err := NewNode("127.0.0.1:0", cfg, nil, time.Minute, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	return n
}

// ringPair starts two ring nodes a and b measuring against cfg's
// landmarks. With two nodes and replication 2 both hold every record, so
// a's owner query sees b's record whatever numbers loopback jitter gives
// them. b has published, so a's FindNearest has a candidate.
func ringPair(t *testing.T, cfg SpaceConfig, opts ...NodeOption) (a, b *Node) {
	t.Helper()
	a, b = newTestNode(t, cfg, opts...), newTestNode(t, cfg, opts...)
	for _, n := range []*Node{a, b} {
		if _, err := n.SetPeers([]string{a.Addr(), b.Addr()}, testTimeout); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Publish(1, testTimeout); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// backdate moves the cached own vector's measurement time by d.
func backdate(n *Node, d time.Duration) *ownVector {
	c := n.own.Load()
	moved := &ownVector{vec: c.vec, at: c.at.Add(-d), pings: c.pings}
	n.own.Store(moved)
	return moved
}

func TestOwnVectorReusedAcrossOps(t *testing.T) {
	lms, addrs := startLandmarks(t, 3)
	a, _ := ringPair(t, testConfig(addrs))
	base := landmarkPings(lms)
	step := func(what string, want int, op func() error) {
		t.Helper()
		if err := op(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := landmarkPings(lms) - base; got != want {
			t.Fatalf("after %s the landmarks served %d pings, want %d", what, got, want)
		}
	}
	publish := func() error { _, err := a.Publish(1, testTimeout); return err }
	find := func() error { _, _, err := a.FindNearest(2, testTimeout); return err }

	step("the first Publish", 3, publish)
	step("FindNearest", 3, find)
	step("the second Publish", 3, publish)
	backdate(a, a.vectorMaxAge())
	step("FindNearest on a stale vector", 6, find)
	step("Publish after it", 6, publish)
	step("MeasureVector", 9, func() error { _, err := a.MeasureVector(1, testTimeout); return err })
}

func TestOwnVectorMorePingsMeasuresAgain(t *testing.T) {
	lms, addrs := startLandmarks(t, 3)
	a, _ := ringPair(t, testConfig(addrs))
	base := landmarkPings(lms)
	for _, tc := range []struct{ pings, want int }{
		{1, 3},      // first measurement
		{3, 3 + 9},  // a 1-ping vector cannot serve a 3-ping request
		{2, 3 + 9},  // a 3-ping vector serves fewer pings
		{3, 3 + 9},  // and as many
		{1, 3 + 9},  // and one
		{4, 3 + 21}, // but not more
	} {
		if _, err := a.Publish(tc.pings, testTimeout); err != nil {
			t.Fatal(err)
		}
		if got := landmarkPings(lms) - base; got != tc.want {
			t.Fatalf("after Publish(%d) the landmarks served %d pings, want %d", tc.pings, got, tc.want)
		}
	}
}

func TestOwnVectorRecordIsACopy(t *testing.T) {
	_, addrs := startLandmarks(t, 3)
	a, _ := ringPair(t, testConfig(addrs))
	rec, err := a.Publish(1, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	want := rec.Vector[0]
	rec.Vector[0] = -1
	next, err := a.Publish(1, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if next.Vector[0] != want {
		t.Fatalf("next record's vector[0] = %v, want %v: a returned record shares the cache", next.Vector[0], want)
	}
	next.Vector[0] = -2
	a.mu.Lock()
	last := a.lastRec.Vector[0]
	a.mu.Unlock()
	if last != want {
		t.Fatalf("lastRec vector[0] = %v, want %v: it shares the returned record's vector", last, want)
	}
	vec, err := a.MeasureVector(1, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	want = vec[0] // the measurement replaced the cache
	vec[0] = -3
	if got := a.own.Load().vec[0]; got != want {
		t.Fatalf("cached vector[0] = %v, want %v: MeasureVector returned the cache itself", got, want)
	}
}

// heldOwner stands in for a one-node ring. It hands every record stored
// on it to the test and answers the store only once the test releases it,
// so a refresh loop waits in its store call while the test reads the
// landmarks' counters.
type heldOwner struct {
	ln      net.Listener
	stores  chan Record
	release chan struct{}
	done    chan struct{}
}

func startHeldOwner(t *testing.T) *heldOwner {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	o := &heldOwner{ln: ln, stores: make(chan Record), release: make(chan struct{}), done: make(chan struct{})}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go o.serve(conn)
		}
	}()
	t.Cleanup(func() { close(o.done); _ = ln.Close() })
	return o
}

func (o *heldOwner) serve(conn net.Conn) {
	defer conn.Close()
	br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
	for {
		req, err := ReadMessage(br)
		if err != nil || req.Type != MsgStore {
			return
		}
		select {
		case o.stores <- *req.Record:
		case <-o.done:
			return
		}
		select {
		case <-o.release:
		case <-o.done:
			return
		}
		if writeMessage(bw, Message{Type: MsgStored, Seq: req.Seq}) != nil {
			return
		}
	}
}

// next returns the next stored record; the storing node waits until release.
func (o *heldOwner) next(t *testing.T) Record {
	t.Helper()
	select {
	case rec := <-o.stores:
		return rec
	case <-time.After(10 * time.Second):
		t.Fatal("no store reached the owner")
		return Record{}
	}
}

func TestRefreshMeasuresFreshOwnVector(t *testing.T) {
	lms, addrs := startLandmarks(t, 3)
	p, err := NewFaultProxy(addrs[1], 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	a := newTestNode(t, testConfig([]string{addrs[0], p.Addr(), addrs[2]}))
	o := startHeldOwner(t) // cleans up before a, so a's Close never waits on a held store
	if _, err := a.SetPeers([]string{o.ln.Addr().String()}, testTimeout); err != nil {
		t.Fatal(err)
	}
	if _, err := a.MeasureVector(1, testTimeout); err != nil {
		t.Fatal(err)
	}
	// Date the cache an hour ahead: a tick that reused it would ping nothing.
	backdate(a, -time.Hour)
	base := landmarkPings(lms)
	a.StartRefresh(time.Millisecond, 1, testTimeout)

	first := o.next(t)
	if got := landmarkPings(lms) - base; got != 3 {
		t.Fatalf("a refresh tick on a fresh cache pinged the landmarks %d times, want 3", got)
	}
	// Move landmark 1 about 30 ms away, far across the 50/32 ms grid cell.
	// The delay holds new connections only, so drop the pooled ones.
	p.SetDelay(30 * time.Millisecond)
	a.tr.Evict(p.Addr())
	o.release <- struct{}{}

	second := o.next(t)
	if got := landmarkPings(lms) - base; got != 6 {
		t.Fatalf("two refresh ticks pinged the landmarks %d times, want 6", got)
	}
	if second.Vector[1] < 30 || second.Number == first.Number {
		t.Fatalf("the tick after the delay published vector %v number %d; first tick %v number %d",
			second.Vector, second.Number, first.Vector, first.Number)
	}
}

func TestFallbackAfterStaleOwnVector(t *testing.T) {
	lms, addrs := startLandmarks(t, 3)
	p, err := NewFaultProxy(addrs[1], 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	a, _ := ringPair(t, testConfig([]string{addrs[0], p.Addr(), addrs[2]}),
		WithRetryPolicy(RetryPolicy{MaxAttempts: 1}))
	if _, err := a.MeasureVector(1, testTimeout); err != nil {
		t.Fatal(err)
	}
	measured, _ := a.Registry().Snapshot().Value("wire_vector_measured_unix_seconds")
	if want := float64(a.own.Load().at.UnixNano()) / 1e9; measured != want {
		t.Fatalf("wire_vector_measured_unix_seconds = %v, want the cache's time %v", measured, want)
	}
	stale := backdate(a, a.vectorMaxAge())
	p.SetBlackhole(true)
	a.tr.Evict(p.Addr())
	base := landmarkPings(lms)

	const timeout = 200 * time.Millisecond
	for call := 1; call <= 2; call++ {
		rec, err := a.Publish(1, timeout)
		if err != nil {
			t.Fatalf("publish %d with a blackholed landmark: %v", call, err)
		}
		if rec.Vector[1] != stale.vec[1] {
			t.Fatalf("publish %d: dimension 1 = %v, want the cached %v", call, rec.Vector[1], stale.vec[1])
		}
		snap := a.Registry().Snapshot()
		if v, _ := snap.Value("wire_vector_fallback_total"); v != float64(call) {
			t.Fatalf("publish %d: wire_vector_fallback_total = %v, want %d", call, v, call)
		}
		// Each call measured the two live landmarks again.
		if got := landmarkPings(lms) - base; got != 2*call {
			t.Fatalf("publish %d: the live landmarks served %d pings, want %d", call, got, 2*call)
		}
		if a.own.Load() != stale {
			t.Fatalf("publish %d cached a vector with a filled-in dimension", call)
		}
		if v, _ := snap.Value("wire_vector_measured_unix_seconds"); v != measured {
			t.Fatalf("publish %d moved wire_vector_measured_unix_seconds to %v", call, v)
		}
	}
}

func TestOwnVectorConcurrentOps(t *testing.T) {
	lms, addrs := startLandmarks(t, 3)
	a, _ := ringPair(t, testConfig(addrs))
	if _, err := a.Publish(1, testTimeout); err != nil {
		t.Fatal(err)
	}
	base := landmarkPings(lms)
	var measures atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var err error
				switch {
				case g == 0 && i%5 == 0: // cache writes race the reads
					measures.Add(1)
					_, err = a.MeasureVector(1, testTimeout)
				case (g+i)%2 == 0:
					_, err = a.Publish(1, testTimeout)
				default:
					_, _, err = a.FindNearest(2, testTimeout)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Only MeasureVector pings landmarks while the cache is fresh.
	if got, want := landmarkPings(lms)-base, 3*int(measures.Load()); got != want {
		t.Fatalf("landmarks served %d pings, want %d (3 per MeasureVector)", got, want)
	}
}
