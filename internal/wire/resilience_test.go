package wire

import (
	"testing"
	"time"
)

// TestClusterConvergesUnderFaults is the PR's acceptance scenario: a
// 16-node cluster whose every Store/Query crosses a fault proxy injecting
// 20% connection loss, plus one crashed (non-landmark) owner node. With
// retries and replication k=2 the soft-state must converge to 100% record
// availability for the surviving nodes; the replicas written at publish
// time serve the crashed owner's shard via query failover.
func TestClusterConvergesUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node fault-injection test")
	}
	const (
		nNodes    = 16
		nLand     = 3
		replicas  = 2
		victimIdx = 7 // never a landmark: landmarks are indices 0..2
		timeout   = time.Second
	)
	retry := RetryPolicy{MaxAttempts: 6, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond}

	// Reserve real addresses.
	boot := make([]*Node, nNodes)
	addrs := make([]string, nNodes)
	stub := testConfig([]string{"placeholder"})
	for i := range boot {
		n, err := NewNode("127.0.0.1:0", stub, nil, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		boot[i] = n
		addrs[i] = n.Addr()
	}
	// One fault proxy per node; the peer list is the proxy addresses, so
	// every store and query crosses the injector. Landmarks stay direct:
	// the scenario under test is soft-state resilience, not measurement.
	// The proxies bind their ephemeral ports while the reservation
	// listeners are still up, so the kernel cannot hand a proxy one of
	// the just-freed node ports and break the rebind below.
	proxies := make([]*FaultProxy, nNodes)
	proxyAddrs := make([]string, nNodes)
	for i, addr := range addrs {
		p, err := NewFaultProxy(addr, uint64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = p.Close() })
		p.SetLoss(0.2)
		proxies[i] = p
		proxyAddrs[i] = p.Addr()
	}
	for _, n := range boot {
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
	}

	cfg := testConfig(addrs[:nLand])
	nodes := make([]*Node, nNodes)
	for i := range nodes {
		n, err := NewNode(addrs[i], cfg, proxyAddrs, time.Minute,
			WithReplication(replicas),
			WithRetryPolicy(retry),
			WithBreaker(5, 100*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		t.Cleanup(func() { _ = n.Close() })
	}

	// Crash one owner. Its proxy stays up, so calls to its shard fail at
	// the backend dial — the remote-crash failure mode.
	if err := nodes[victimIdx].Close(); err != nil {
		t.Fatal(err)
	}

	alive := make([]*Node, 0, nNodes-1)
	for i, n := range nodes {
		if i != victimIdx {
			alive = append(alive, n)
		}
	}

	// Counted variant of the test call helper: the convergence loop's own
	// retries must be observable, because a bare transport meters nothing
	// and the nodes' pooled transport dials each peer only once — a run
	// can converge with every node-side connection intact while the
	// injector drops plenty of test-side dials. Each query opens its own
	// connection, and each failed attempt redials.
	testRetries := 0
	queryCounted := func(addr string, number uint64) ([]Record, error) {
		tr := NewTransport(1)
		defer tr.Close()
		var recs []Record
		err := withRetry(retry, func() { testRetries++ }, nil, func() error {
			resp, err := tr.RoundTrip(addr, Message{Type: MsgQuery, Number: number, Max: nNodes * replicas}, timeout)
			recs = resp.Records
			return err
		})
		return recs, err
	}

	// Converge: publish (tolerating transient failures) and measure
	// record availability until every surviving node's record is
	// retrievable from its owner list.
	records := make(map[*Node]Record, len(alive))
	deadline := time.Now().Add(20 * time.Second)
	for {
		for _, n := range alive {
			if rec, err := n.Publish(1, timeout); err == nil {
				records[n] = rec
			}
		}
		found := 0
		for _, n := range alive {
			rec, ok := records[n]
			if !ok {
				continue
			}
			owners := alive[0].OwnersOf(rec.Number, replicas)
			for _, owner := range owners {
				got, err := queryCounted(owner, rec.Number)
				if err != nil {
					continue
				}
				for _, r := range got {
					if r.Addr == n.Addr() {
						found++
						goto next
					}
				}
			}
		next:
		}
		if found == len(alive) {
			break // 100% availability
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d records available under faults", found, len(alive))
		}
		time.Sleep(100 * time.Millisecond)
	}

	// The failure machinery must actually have been exercised: loss fired
	// at the injector and the retry layer absorbed it. If the seeded
	// stream happened to spare every connection so far, push more traffic
	// through the injector until a drop demonstrably occurred — the point
	// is to prove drops translate into absorbed retries, not to bet on
	// which connections the stream hits.
	sumDropped := func() int64 {
		var n int64
		for _, p := range proxies {
			n += p.Dropped()
		}
		return n
	}
	for probeDeadline := time.Now().Add(10 * time.Second); sumDropped() == 0; {
		if time.Now().After(probeDeadline) {
			t.Fatal("20% loss dropped zero connections — the injector is not in the path")
		}
		_, _ = queryCounted(proxyAddrs[0], records[alive[0]].Number)
	}
	totalRetries := testRetries
	for _, n := range alive {
		snap := n.Registry().Snapshot()
		if f, ok := snap.Family("wire_retries_total"); ok {
			for _, s := range f.Series {
				totalRetries += int(s.Value)
			}
		}
	}
	if totalRetries == 0 {
		t.Fatal("injected connection drops produced zero retries — the retry layer is not absorbing faults")
	}

	// Query failover end to end: a node whose primary owner is the victim
	// still resolves candidates through the replica.
	for _, n := range alive {
		rec, ok := records[n]
		if !ok {
			continue
		}
		if alive[0].OwnersOf(rec.Number, 1)[0] == proxyAddrs[victimIdx] {
			if _, _, err := n.FindNearest(3, timeout); err != nil {
				t.Fatalf("FindNearest with crashed primary owner: %v", err)
			}
			return
		}
	}
	// No record happened to land on the victim's slot — the availability
	// check above still covered replication; nothing more to assert.
}
