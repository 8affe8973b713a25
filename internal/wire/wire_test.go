package wire

import (
	"bufio"
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"gsso/internal/obs/span"
)

const testTimeout = 2 * time.Second

func testConfig(landmarks []string) SpaceConfig {
	return SpaceConfig{
		Landmarks:  landmarks,
		IndexDims:  3,
		BitsPerDim: 5,
		MaxRTTMs:   50,
	}
}

func TestSpaceConfigValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*SpaceConfig)
		ok     bool
	}{
		{"valid", func(c *SpaceConfig) {}, true},
		{"no-landmarks", func(c *SpaceConfig) { c.Landmarks = nil }, false},
		{"zero-dims", func(c *SpaceConfig) { c.IndexDims = 0 }, false},
		{"zero-bits", func(c *SpaceConfig) { c.BitsPerDim = 0 }, false},
		{"zero-rtt", func(c *SpaceConfig) { c.MaxRTTMs = 0 }, false},
		{"curve-over-64-bits", func(c *SpaceConfig) { c.BitsPerDim = 30 }, false}, // 3 dims × 30 bits
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig([]string{"a", "b", "c"})
			tc.mutate(&cfg)
			err := cfg.Validate()
			if (err == nil) != tc.ok {
				t.Fatalf("Validate = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	in := Message{
		Type:   MsgStore,
		Seq:    42,
		Record: &Record{Addr: "1.2.3.4:5", Vector: []float64{1, 2}, Number: 77, ExpiresUnixMilli: 9},
	}
	if err := writeMessage(w, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadMessage(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.Seq != in.Seq || out.Record.Addr != in.Record.Addr ||
		out.Record.Number != 77 {
		t.Fatalf("round trip mangled message: %+v", out)
	}
}

// call makes one client RPC the way a standalone tool does: a fresh
// NewTransport(1), one RoundTrip under policy (default: a single
// attempt), then Close — so every call opens its own TCP connection.
func call(addr string, req Message, timeout time.Duration, policy ...RetryPolicy) (Message, error) {
	pol := RetryPolicy{MaxAttempts: 1}
	if len(policy) > 0 {
		pol = policy[0]
	}
	tr := NewTransport(1)
	defer tr.Close()
	var resp Message
	err := withRetry(pol, nil, nil, func() error {
		var err error
		resp, err = tr.RoundTrip(addr, req, timeout)
		return err
	})
	return resp, err
}

func TestReadMessageRejectsGarbage(t *testing.T) {
	r := bufio.NewReader(strings.NewReader("this is not json\n"))
	if _, err := ReadMessage(r); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestRecordExpired(t *testing.T) {
	now := time.Now()
	live := Record{ExpiresUnixMilli: now.Add(time.Minute).UnixMilli()}
	dead := Record{ExpiresUnixMilli: now.Add(-time.Minute).UnixMilli()}
	if live.Expired(now) {
		t.Fatal("live record reported expired")
	}
	if !dead.Expired(now) {
		t.Fatal("dead record reported live")
	}
}

// cluster starts n nodes on ephemeral localhost ports, the first k of
// which double as landmarks, and returns them ready to talk. opts apply
// to every node.
func cluster(t *testing.T, n, k int, opts ...NodeOption) []*Node {
	t.Helper()
	return clusterWith(t, func(*SpaceConfig) {}, n, k, opts...)
}

// clusterWith is cluster with the shared space config adjusted by mutate.
func clusterWith(t *testing.T, mutate func(*SpaceConfig), n, k int, opts ...NodeOption) []*Node {
	t.Helper()
	// First pass: start listeners to learn addresses.
	boot := make([]*Node, n)
	addrs := make([]string, n)
	cfg := testConfig([]string{"placeholder"})
	for i := range boot {
		node, err := NewNode("127.0.0.1:0", cfg, nil, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		boot[i] = node
		addrs[i] = node.Addr()
	}
	// Second pass: restart with the real config (landmarks + peers).
	for _, nd := range boot {
		if err := nd.Close(); err != nil {
			t.Fatal(err)
		}
	}
	real := testConfig(addrs[:k])
	mutate(&real)
	nodes := make([]*Node, n)
	for i := range nodes {
		node, err := NewNode(addrs[i], real, addrs, time.Minute, opts...)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		t.Cleanup(func() { _ = node.Close() })
	}
	return nodes
}

func TestPingStoreQuery(t *testing.T) {
	nodes := cluster(t, 3, 1)
	rtt, err := nodes[1].ping(span.Context{}, nodes[0].Addr(), testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if rtt <= 0 {
		t.Fatalf("rtt = %v", rtt)
	}
	rec := Record{
		Addr:             nodes[1].Addr(),
		Vector:           []float64{1, 2, 3},
		Number:           500,
		ExpiresUnixMilli: time.Now().Add(time.Minute).UnixMilli(),
	}
	if _, err := call(nodes[0].Addr(), Message{Type: MsgStore, Record: &rec}, testTimeout); err != nil {
		t.Fatal(err)
	}
	if nodes[0].RecordCount() != 1 {
		t.Fatal("record not stored")
	}
	resp, err := call(nodes[0].Addr(), Message{Type: MsgQuery, Number: 490, Max: 5}, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	got := resp.Records
	if len(got) != 1 || got[0].Addr != rec.Addr {
		t.Fatalf("query returned %+v", got)
	}
}

func TestMeasureVector(t *testing.T) {
	nodes := cluster(t, 4, 3)
	vec, err := nodes[3].MeasureVector(2, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != 3 {
		t.Fatalf("vector len %d", len(vec))
	}
	for _, v := range vec {
		if v < 0 {
			t.Fatalf("negative RTT %v", v)
		}
	}
}

func TestMeasureVectorUnreachableLandmark(t *testing.T) {
	cfg := testConfig([]string{"127.0.0.1:1"}) // nothing listens on port 1
	node, err := NewNode("127.0.0.1:0", cfg, nil, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if _, err := node.MeasureVector(1, 200*time.Millisecond); err == nil {
		t.Fatal("unreachable landmark did not error")
	}
	if node.own.Load() != nil {
		t.Fatal("a failed measurement was cached")
	}
}

func TestOwnerOfDeterministicAndCovering(t *testing.T) {
	nodes := cluster(t, 5, 2)
	n := nodes[0]
	curveMax := uint64(1)<<15 - 1 // 3 dims x 5 bits
	owners := map[string]bool{}
	for num := uint64(0); num <= curveMax; num += 97 {
		o1 := n.OwnerOf(num)
		o2 := n.OwnerOf(num)
		if o1 != o2 {
			t.Fatal("owner not deterministic")
		}
		owners[o1] = true
	}
	if len(owners) != 5 {
		t.Fatalf("only %d of 5 peers own slots", len(owners))
	}
	// All nodes agree on ownership.
	for num := uint64(0); num <= curveMax; num += 997 {
		want := nodes[0].OwnerOf(num)
		for _, other := range nodes[1:] {
			if other.OwnerOf(num) != want {
				t.Fatal("ownership disagreement")
			}
		}
	}
}

func TestPublishAndFindNearest(t *testing.T) {
	nodes := cluster(t, 6, 3)
	for _, nd := range nodes {
		if _, err := nd.Publish(1, testTimeout); err != nil {
			t.Fatal(err)
		}
	}
	// Each publish writes the record to its replication-factor (default 2)
	// distinct ring owners.
	total := 0
	for _, nd := range nodes {
		total += nd.RecordCount()
	}
	if want := len(nodes) * nodes[0].Replication(); total != want {
		t.Fatalf("published %d records across the cluster, want %d", total, want)
	}
	addr, rtt, err := nodes[0].FindNearest(3, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if addr == "" || addr == nodes[0].Addr() {
		t.Fatalf("bad nearest: %q", addr)
	}
	if rtt <= 0 {
		t.Fatalf("rtt = %v", rtt)
	}
}

func TestFindNearestSkipsDeadPeers(t *testing.T) {
	// A far grid edge puts every loopback vector in cell 0: all records
	// carry number 0 and share one pair of ring owners, whatever the load.
	nodes := clusterWith(t, func(c *SpaceConfig) { c.MaxRTTMs = 1e9 }, 5, 2)
	for _, nd := range nodes {
		if rec, err := nd.Publish(1, testTimeout); err != nil || rec.Number != 0 {
			t.Fatalf("Publish = number %d, %v; want number 0", rec.Number, err)
		}
	}
	// Node 0 searches for node 1. The owners survive and withdraw their
	// own records, so node 1 is the only live candidate; every other node
	// is closed, and its record, still on the owners, is a dead candidate.
	owners := nodes[0].OwnersOf(0, nodes[0].Replication())
	dead := 0
	for _, nd := range nodes[2:] {
		if !slices.Contains(owners, nd.Addr()) {
			if err := nd.Close(); err != nil {
				t.Fatal(err)
			}
			dead++
		} else if removed, err := nd.Withdraw(testTimeout); removed != len(owners) {
			t.Fatalf("Withdraw removed %d of %d replicas: %v", removed, len(owners), err)
		}
	}
	if dead == 0 {
		t.Fatal("nothing left to close")
	}
	failedPings := nodes[0].metrics.of(MsgPing).rpc[span.OutcomeError]
	before := failedPings.Count()
	// The budget covers node 1 and every dead candidate, whatever their
	// rank: each dead one is probed, charged, and cannot win.
	addr, _, err := nodes[0].FindNearest(1+dead, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if addr != nodes[1].Addr() {
		t.Fatalf("FindNearest = %s, want node 1 (%s)", addr, nodes[1].Addr())
	}
	if got := failedPings.Count() - before; got != uint64(dead) {
		t.Fatalf("%d candidate pings failed, want one per dead candidate (%d)", got, dead)
	}
}

func TestNodeCloseIdempotent(t *testing.T) {
	node, err := NewNode("127.0.0.1:0", testConfig([]string{"x"}), nil, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
}
