package wire

import (
	"slices"
	"testing"
	"time"
)

// TestStartRefreshKeepsRecordAlive: with a short TTL and a refresh loop,
// the owner's copy of the record is renewed past several TTLs and stays
// queryable.
func TestStartRefreshKeepsRecordAlive(t *testing.T) {
	nodes := cluster(t, 3, 2)
	target := nodes[2]
	target.ttl = 120 * time.Millisecond
	rec, err := target.Publish(1, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	target.StartRefresh(40*time.Millisecond, 1, testTimeout)

	// Every refresh re-measures, so the number may move between owners:
	// wait for any owner to hold a copy renewed three TTLs on.
	renewed := func() bool {
		now := time.Now()
		for _, nd := range nodes {
			var rs replyScratch
			for _, r := range nd.store.nearest(0, 1<<20, now, &rs) {
				if r.Addr == target.Addr() && r.ExpiresUnixMilli >= rec.ExpiresUnixMilli+3*target.ttl.Milliseconds() {
					return true
				}
			}
		}
		return false
	}
	waitFor(t, testTimeout, "a record renewed three TTLs on", renewed)
	// Query the owner: the record must still be live.
	vec, err := target.MeasureVector(1, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	num, err := target.cfg.Number(vec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := call(target.OwnerOf(num), Message{Type: MsgQuery, Number: num, Max: 16}, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range resp.Records {
		if r.Addr == target.Addr() {
			found = true
		}
	}
	if !found {
		t.Fatal("record expired despite refresh loop")
	}
}

// TestWithoutRefreshRecordExpires: a published record carries the node's
// TTL, and its owners stop serving it once that has passed.
func TestWithoutRefreshRecordExpires(t *testing.T) {
	nodes := cluster(t, 3, 2)
	target := nodes[2]
	target.ttl = 60 * time.Millisecond
	before := time.Now()
	rec, err := target.Publish(1, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if ttl := time.Duration(rec.ExpiresUnixMilli-before.UnixMilli()) * time.Millisecond; ttl < target.ttl || ttl > target.ttl+testTimeout {
		t.Fatalf("published record lives %v, want the node's TTL %v", ttl, target.ttl)
	}
	// Serve the owners' next query as of just past the deadline.
	past := time.UnixMilli(rec.ExpiresUnixMilli + 1)
	for _, owner := range target.OwnersOf(rec.Number, target.Replication()) {
		nd := nodes[slices.IndexFunc(nodes, func(nd *Node) bool { return nd.Addr() == owner })]
		if !nd.store.holds(target.Addr()) {
			t.Fatalf("owner %s never stored the record", owner)
		}
		var rs replyScratch
		resp := serveMessage(nd.store, nd.ring.Load(), Message{Type: MsgQuery, Number: rec.Number, Max: 16}, past, &rs)
		for _, r := range resp.Records {
			if r.Addr == target.Addr() {
				t.Fatal("record survived its TTL with no refresh")
			}
		}
	}
}

func TestCloseStopsRefresh(t *testing.T) {
	nodes := cluster(t, 2, 1)
	n := nodes[1]
	n.StartRefresh(10*time.Millisecond, 1, testTimeout)
	if err := n.Close(); err != nil {
		t.Fatal(err) // must not hang on the refresh goroutine
	}
}

func TestRefreshFailuresCounted(t *testing.T) {
	// A refresh loop whose publishes cannot succeed (unreachable landmark,
	// no prior measurement to fall back on) must count every failed tick
	// in wire_refresh_failures_total instead of dropping the error.
	cfg := testConfig([]string{"127.0.0.1:1"}) // nothing listens on port 1
	n, err := NewNode("127.0.0.1:0", cfg, nil, time.Minute,
		WithRetryPolicy(RetryPolicy{MaxAttempts: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.StartRefresh(5*time.Millisecond, 1, 50*time.Millisecond)

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if v, _ := n.Registry().Snapshot().Value("wire_refresh_failures_total"); v >= 2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	v, _ := n.Registry().Snapshot().Value("wire_refresh_failures_total")
	t.Fatalf("wire_refresh_failures_total = %v after failing refreshes, want >= 2", v)
}

// TestRefreshStoreFailuresCounted: the landmark answers but every ring
// owner is down, so each tick measures and then fails to store anywhere.
// Those ticks must count in wire_refresh_failures_total as well.
func TestRefreshStoreFailuresCounted(t *testing.T) {
	lms, lmAddrs := startLandmarks(t, 1)
	dead := make([]string, 2)
	for i := range dead {
		gone := startNode(t, stubCfg(), nil)
		dead[i] = gone.Addr()
		if err := gone.Close(); err != nil {
			t.Fatal(err)
		}
	}
	n, err := NewNode("127.0.0.1:0", testConfig(lmAddrs), dead, time.Minute,
		WithRetryPolicy(RetryPolicy{MaxAttempts: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.StartRefresh(5*time.Millisecond, 1, 50*time.Millisecond)

	failures := func() float64 {
		v, _ := n.Registry().Snapshot().Value("wire_refresh_failures_total")
		return v
	}
	waitFor(t, 2*time.Second, "two failed refresh ticks", func() bool { return failures() >= 2 })
	if got := landmarkPings(lms); got < 2 {
		t.Fatalf("landmark served %d pings; the ticks failed before measuring", got)
	}
}

// TestRefreshTickStoresAtEachOwner: a refresh tick measures once and
// stores the record at exactly replication ring owners, one store frame
// each, with no publish-batch frame anywhere.
func TestRefreshTickStoresAtEachOwner(t *testing.T) {
	const replication = 2
	lms, lmAddrs := startLandmarks(t, 1)
	owners := make([]*Node, 3)
	ownerAddrs := make([]string, len(owners))
	for i := range owners {
		owners[i] = startNode(t, stubCfg(), nil)
		ownerAddrs[i] = owners[i].Addr()
	}
	n, err := NewNode("127.0.0.1:0", testConfig(lmAddrs), ownerAddrs, time.Minute,
		WithReplication(replication), WithRetryPolicy(RetryPolicy{MaxAttempts: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.StartRefresh(10*time.Millisecond, 1, testTimeout)
	waitFor(t, 2*time.Second, "three refresh ticks", func() bool { return landmarkPings(lms) >= 3 })
	// Close waits out a tick in flight, so every measured tick has
	// finished its stores when the counters are read.
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	ticks := landmarkPings(lms) // one landmark, one ping per tick
	var stores, batches float64
	for _, o := range owners {
		snap := o.Registry().Snapshot()
		v, _ := snap.Value("wire_requests_total", string(MsgStore))
		stores += v
		v, _ = snap.Value("wire_requests_total", string(MsgPublishBatch))
		batches += v
	}
	if want := float64(replication * ticks); stores != want {
		t.Fatalf("%d ticks sent %v store frames, want %v", ticks, stores, want)
	}
	if batches != 0 {
		t.Fatalf("refresh sent %v publish-batch frames, want 0", batches)
	}
}

func TestStartRefreshDefaultInterval(t *testing.T) {
	nodes := cluster(t, 2, 1)
	n := nodes[1]
	n.StartRefresh(0, 1, testTimeout) // derives interval from TTL
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
}
