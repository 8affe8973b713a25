package wire

import (
	"slices"
	"sync"
	"testing"
	"time"

	"gsso/internal/obs/span"
)

// waitFor polls cond every millisecond until it holds or the deadline
// passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestSetPeersSwapsRingAndRehomes walks the full reconfiguration path:
// a node leaves the membership, every survivor swaps its ring, and the
// departed node's shard is handed off so recall survives without
// waiting out the TTL. Which records a store keeps and which it hands
// off is TestRecordStoreRehome's.
func TestSetPeersSwapsRingAndRehomes(t *testing.T) {
	nodes := cluster(t, 5, 2)
	addrs := make([]string, len(nodes))
	for i, nd := range nodes {
		addrs[i] = nd.Addr()
	}
	recs := make([]Record, len(nodes))
	for i, nd := range nodes {
		rec, err := nd.Publish(1, testTimeout)
		if err != nil {
			t.Fatalf("publish node %d: %v", i, err)
		}
		recs[i] = rec
	}
	if got := nodes[0].RingEpoch(); got != 1 {
		t.Fatalf("boot epoch = %d, want 1", got)
	}

	// Drop the last node from the membership, pushing the new list to
	// everyone — the victim included, so its shard re-homes.
	next := slices.Sorted(slices.Values(addrs[:4]))
	for i, nd := range nodes {
		epoch, err := nd.SetPeers(next, testTimeout)
		if err != nil {
			t.Fatalf("SetPeers node %d: %v", i, err)
		}
		if epoch != 2 {
			t.Fatalf("SetPeers node %d epoch = %d, want 2", i, epoch)
		}
	}
	// Idempotence: the same list again must not bump the epoch.
	if epoch, err := nodes[0].SetPeers(slices.Clone(next), testTimeout); err != nil || epoch != 2 {
		t.Fatalf("no-op SetPeers = (%d, %v), want (2, nil)", epoch, err)
	}
	if _, err := nodes[0].SetPeers(nil, testTimeout); err == nil {
		t.Fatal("SetPeers accepted an empty list")
	}

	// The victim handed its whole shard off.
	if got := nodes[4].RecordCount(); got != 0 {
		t.Fatalf("removed node still holds %d records", got)
	}
	// Full recall for the survivors' records: every new-ring owner holds
	// a copy (the departed node's own record may legitimately linger
	// until it withdraws; survivors re-published theirs on the swap).
	for i, rec := range recs[:4] {
		for _, owner := range nodes[0].OwnersOf(rec.Number, nodes[0].Replication()) {
			j := slices.Index(addrs, owner)
			if !nodes[j].store.holds(rec.Addr) {
				t.Fatalf("record of node %d missing on new owner %s", i, owner)
			}
		}
	}

	// The membership RPC reports the new ring.
	resp, err := call(addrs[0], Message{Type: MsgPeers}, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Epoch != 2 || !slices.Equal(resp.Peers, next) {
		t.Fatalf("peers reply = (%v, %d), want (%v, 2)", resp.Peers, resp.Epoch, next)
	}
}

// TestSetPeersEvictsRemovedPeer checks the client-side cleanup of a
// swap: pooled connections and the breaker of a peer that left the ring
// are discarded, not left to rot against a decommissioned address.
func TestSetPeersEvictsRemovedPeer(t *testing.T) {
	nodes := cluster(t, 3, 2)
	addrs := make([]string, len(nodes))
	for i, nd := range nodes {
		addrs[i] = nd.Addr()
	}
	gone := addrs[2]
	if _, err := nodes[0].ping(span.Context{}, gone, testTimeout); err != nil {
		t.Fatal(err)
	}
	if nodes[0].tr.Open(gone) == 0 {
		t.Fatal("ping left no pooled connection")
	}
	if _, err := nodes[0].SetPeers(addrs[:2], testTimeout); err != nil {
		t.Fatal(err)
	}
	waitFor(t, testTimeout, "pool eviction", func() bool {
		return nodes[0].tr.Open(gone) == 0
	})
	nodes[0].bmu.Lock()
	_, ok := nodes[0].breakers[gone]
	nodes[0].bmu.Unlock()
	if ok {
		t.Fatal("breaker for removed peer survived the swap")
	}
	// A kept peer's state is untouched.
	want := slices.Sorted(slices.Values(addrs[:2]))
	if !slices.Equal(nodes[0].Peers(), want) {
		t.Fatalf("Peers() = %v, want %v", nodes[0].Peers(), want)
	}
}

// TestSetPeersConcurrentHammer drives ring swaps concurrently with
// in-flight RPCs, publishes, and breaker churn, then settles
// and asserts the invariants that matter after the dust: publishes land
// on the final ring's owners, the removed peer's pool and breaker are
// gone, and nothing deadlocked (the test finishing is that assertion).
// Run under -race, this is the memory-safety gate for the atomic swap.
func TestSetPeersConcurrentHammer(t *testing.T) {
	fast := RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
	nodes := cluster(t, 6, 2, WithRetryPolicy(fast))
	addrs := make([]string, len(nodes))
	for i, nd := range nodes {
		addrs[i] = nd.Addr()
	}
	full := slices.Sorted(slices.Values(addrs))        // membership A: everyone
	trimmed := slices.Sorted(slices.Values(addrs[:5])) // membership B: last node dropped

	var wg sync.WaitGroup
	stop := make(chan struct{})
	work := func(fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					fn()
				}
			}
		}()
	}
	// Flip the ring on every node, hot.
	for _, nd := range nodes {
		nd := nd
		i := 0
		work(func() {
			if i%2 == 0 {
				_, _ = nd.SetPeers(trimmed, 50*time.Millisecond)
			} else {
				_, _ = nd.SetPeers(full, 50*time.Millisecond)
			}
			i++
		})
	}
	// User publishes and refresh-tick publishes race the swaps.
	work(func() { _, _ = nodes[0].Publish(1, 50*time.Millisecond) })
	work(func() { _, _ = nodes[1].publish(1, 50*time.Millisecond, false) })
	// Queries and pings keep the transport pools and breakers hot,
	// including against the address being evicted.
	work(func() {
		_, _, _ = nodes[2].rpc(span.Context{}, addrs[5], Message{Type: MsgQuery, Number: 42, Max: 4}, 50*time.Millisecond)
	})
	work(func() { _, _ = nodes[3].ping(span.Context{}, addrs[5], 50*time.Millisecond) })
	// Breaker churn racing the swap's breaker deletion.
	work(func() { nodes[0].breakerFor(addrs[5]).failure(time.Now()) })

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Settle on the trimmed membership everywhere. The detour through the
	// full list forces a real swap on every node regardless of where the
	// hammer left it, so the eviction path runs once more with no racing
	// traffic to re-create pools or breakers behind it.
	for i, nd := range nodes {
		if _, err := nd.SetPeers(full, testTimeout); err != nil {
			t.Fatalf("settle SetPeers node %d: %v", i, err)
		}
		if _, err := nd.SetPeers(trimmed, testTimeout); err != nil {
			t.Fatalf("settle SetPeers node %d: %v", i, err)
		}
		if !slices.Equal(nd.Peers(), trimmed) {
			t.Fatalf("node %d ring = %v after settle", i, nd.Peers())
		}
	}
	// No wrong-ring publishes once settled: a fresh publish lands on
	// exactly the trimmed ring's owners. The hammer's 50ms timeouts can
	// leave a landmark's breaker open, so retry past its cooldown.
	var rec Record
	waitFor(t, 3*defaultOptions().breakerCooldown, "settled publish", func() bool {
		var err error
		rec, err = nodes[0].Publish(1, testTimeout)
		return err == nil
	})
	owners := nodes[0].OwnersOf(rec.Number, nodes[0].Replication())
	for _, owner := range owners {
		if !slices.Contains(trimmed, owner) {
			t.Fatalf("owner %s outside the settled ring", owner)
		}
		j := slices.Index(addrs, owner)
		if !nodes[j].store.holds(rec.Addr) {
			t.Fatalf("settled publish missing on owner %s", owner)
		}
	}
	// The dropped peer's client-side state is fully evicted.
	waitFor(t, testTimeout, "pool eviction", func() bool {
		for _, nd := range nodes[:5] {
			if nd.tr.Open(addrs[5]) != 0 {
				return false
			}
		}
		return true
	})
	for i, nd := range nodes[:5] {
		nd.bmu.Lock()
		_, ok := nd.breakers[addrs[5]]
		nd.bmu.Unlock()
		if ok {
			t.Fatalf("node %d kept a breaker for the dropped peer", i)
		}
	}
}
