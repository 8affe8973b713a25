package wire

import (
	"bufio"
	"net"
	"testing"
	"time"
)

func TestFaultProxyForwards(t *testing.T) {
	n := startNode(t, stubCfg(), nil)
	p, err := NewFaultProxy(n.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if _, err := call(p.Addr(), Message{Type: MsgPing}, testTimeout); err != nil {
		t.Fatalf("ping through clean proxy: %v", err)
	}
	rec := Record{Addr: "x:1", Number: 9, ExpiresUnixMilli: time.Now().Add(time.Minute).UnixMilli()}
	if _, err := call(p.Addr(), Message{Type: MsgStore, Record: &rec}, testTimeout); err != nil {
		t.Fatal(err)
	}
	if got, err := call(p.Addr(), Message{Type: MsgQuery, Number: 9, Max: 4}, testTimeout); err != nil || len(got.Records) != 1 {
		t.Fatalf("query through proxy = %v, %v", got.Records, err)
	}
	if p.Forwarded() != 3 || p.Dropped() != 0 {
		t.Fatalf("forwarded=%d dropped=%d", p.Forwarded(), p.Dropped())
	}
}

func TestFaultProxyLossHealedByRetry(t *testing.T) {
	n := startNode(t, stubCfg(), nil)
	p, err := NewFaultProxy(n.Addr(), 7)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.SetLoss(0.5)

	pol := RetryPolicy{MaxAttempts: 12, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
	for i := 0; i < 10; i++ {
		if _, err := call(p.Addr(), Message{Type: MsgPing}, testTimeout, pol); err != nil {
			t.Fatalf("ping %d through 50%% loss with retries: %v", i, err)
		}
	}
	if p.Dropped() == 0 {
		t.Fatal("loss rate 0.5 dropped nothing across 10+ connections")
	}
}

func TestFaultProxyBlackholeTimesOut(t *testing.T) {
	n := startNode(t, stubCfg(), nil)
	p, err := NewFaultProxy(n.Addr(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.SetBlackhole(true)

	start := time.Now()
	if _, err := call(p.Addr(), Message{Type: MsgPing}, 150*time.Millisecond); err == nil {
		t.Fatal("ping through blackhole succeeded")
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Fatalf("blackhole failed fast (%v); it must hang until the deadline", elapsed)
	}
	if p.Blackholed() != 1 {
		t.Fatalf("blackholed = %d", p.Blackholed())
	}
	// Close with a blackholed connection pending must not hang.
	p.SetBlackhole(false)
}

func TestFaultProxyDelay(t *testing.T) {
	n := startNode(t, stubCfg(), nil)
	p, err := NewFaultProxy(n.Addr(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.SetDelay(80 * time.Millisecond)

	start := time.Now()
	if _, err := call(p.Addr(), Message{Type: MsgPing}, testTimeout); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Fatalf("delayed ping returned in %v", elapsed)
	}

	// The hold starts at the client's first bytes, so a client that writes
	// late on its connection still waits the whole delay from its write.
	conn, err := net.DialTimeout("tcp", p.Addr(), testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	start = time.Now()
	if err := writeMessage(bufio.NewWriter(conn), Message{Type: MsgPing, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if resp, err := ReadMessage(bufio.NewReader(conn)); err != nil || resp.Type != MsgPong {
		t.Fatalf("ping on a late-writing conn = %v, %v", resp, err)
	}
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Fatalf("ping written 60 ms after the dial returned %v after the write", elapsed)
	}
	conn.Close()

	// Close unblocks a connection held before and after its first bytes.
	p.SetDelay(time.Hour)
	idle, err := net.DialTimeout("tcp", p.Addr(), testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	held, err := net.DialTimeout("tcp", p.Addr(), testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	if err := writeMessage(bufio.NewWriter(held), Message{Type: MsgPing, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the proxy read the held bytes
	closed := make(chan error, 1)
	go func() { closed <- p.Close() }()
	select {
	case <-closed:
	case <-time.After(testTimeout):
		t.Fatal("Close hung on held connections")
	}
}

// TestFaultProxyCloseWithOpenConnection: a pooled client keeps its
// forwarded connection open, and Close must sever it rather than wait for
// the pipe's one-minute deadline.
func TestFaultProxyCloseWithOpenConnection(t *testing.T) {
	n := startNode(t, stubCfg(), nil)
	p, err := NewFaultProxy(n.Addr(), 3)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialTimeout("tcp", p.Addr(), testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeMessage(bufio.NewWriter(conn), Message{Type: MsgPing, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	if resp, err := ReadMessage(br); err != nil || resp.Type != MsgPong {
		t.Fatalf("ping on a forwarded conn = %v, %v", resp, err)
	}
	closed := make(chan error, 1)
	go func() { closed <- p.Close() }()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close blocked on an open forwarded connection")
	}
	_ = conn.SetReadDeadline(time.Now().Add(testTimeout))
	if _, err := ReadMessage(br); err == nil {
		t.Fatal("the forwarded connection outlived Close")
	}
}

func TestFaultProxyCloseIdempotent(t *testing.T) {
	n := startNode(t, stubCfg(), nil)
	p, err := NewFaultProxy(n.Addr(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultProxyPartitionBoth: a symmetric partition closes new
// connections at accept — the client fails fast rather than hanging —
// and lifting it restores the link.
func TestFaultProxyPartitionBoth(t *testing.T) {
	n := startNode(t, stubCfg(), nil)
	p, err := NewFaultProxy(n.Addr(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.SetPartition(PartitionBoth, false)

	if _, err := call(p.Addr(), Message{Type: MsgPing}, testTimeout, RetryPolicy{MaxAttempts: 1}); err == nil {
		t.Fatal("ping crossed a symmetric partition")
	}
	if p.Partitioned() == 0 {
		t.Fatalf("partitioned = %d, want > 0", p.Partitioned())
	}
	p.SetPartition(PartitionOff, false)
	if _, err := call(p.Addr(), Message{Type: MsgPing}, testTimeout); err != nil {
		t.Fatalf("ping after lifting partition: %v", err)
	}
}

// TestFaultProxyPartitionToBackend: the inbound-severed one-way
// partition must make requests vanish — the client times out AND the
// backend never sees the store — while the link still dials.
func TestFaultProxyPartitionToBackend(t *testing.T) {
	n := startNode(t, stubCfg(), nil)
	p, err := NewFaultProxy(n.Addr(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.SetPartition(PartitionToBackend, false)

	rec := Record{Addr: "x:1", Number: 9, ExpiresUnixMilli: time.Now().Add(time.Minute).UnixMilli()}
	start := time.Now()
	_, err = call(p.Addr(), Message{Type: MsgStore, Record: &rec}, 150*time.Millisecond, RetryPolicy{MaxAttempts: 1})
	if err == nil {
		t.Fatal("store crossed a to-backend partition")
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Fatalf("to-backend partition failed fast (%v); requests must vanish, not bounce", elapsed)
	}
	if got := n.RecordCount(); got != 0 {
		t.Fatalf("backend stored %d records through a severed inbound direction", got)
	}
	if p.Partitioned() == 0 {
		t.Fatalf("partitioned = %d, want > 0", p.Partitioned())
	}
}

// TestFaultProxyPartitionFromBackend: the outbound-severed one-way
// partition is the nastier half of split-brain — the backend DOES the
// work (record stored) but the client never hears the ack and times
// out. Retry layers must treat that as failure without double-effects
// upstream; the soft-state model makes the duplicate store idempotent.
func TestFaultProxyPartitionFromBackend(t *testing.T) {
	n := startNode(t, stubCfg(), nil)
	p, err := NewFaultProxy(n.Addr(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.SetPartition(PartitionFromBackend, false)

	rec := Record{Addr: "x:1", Number: 9, ExpiresUnixMilli: time.Now().Add(time.Minute).UnixMilli()}
	_, err = call(p.Addr(), Message{Type: MsgStore, Record: &rec}, 150*time.Millisecond, RetryPolicy{MaxAttempts: 1})
	if err == nil {
		t.Fatal("store acked across a from-backend partition")
	}
	// The request crossed: the backend holds the record even though the
	// client saw a timeout.
	waitFor(t, testTimeout, "the store to reach the backend (from-backend must sever only responses)",
		func() bool { return n.RecordCount() == 1 })
}

// TestFaultProxyPartitionKillsEstablished: engaging a partition with
// killEstablished must sever connections already piped through the
// proxy, not just refuse new ones — a real cut kills in-flight
// conversations.
func TestFaultProxyPartitionKillsEstablished(t *testing.T) {
	n := startNode(t, stubCfg(), nil)
	p, err := NewFaultProxy(n.Addr(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Establish a healthy pipe and prove it works.
	conn, err := net.DialTimeout("tcp", p.Addr(), testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeMessage(bufio.NewWriter(conn), Message{Type: MsgPing, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	if resp, err := ReadMessage(br); err != nil || resp.Type != MsgPong {
		t.Fatalf("ping on established conn = %v, %v", resp, err)
	}

	p.SetPartition(PartitionBoth, true)
	if got := p.Killed(); got == 0 {
		t.Fatalf("killed = %d, want > 0", got)
	}
	// The established connection is dead: the next round trip fails.
	_ = conn.SetReadDeadline(time.Now().Add(testTimeout))
	_ = writeMessage(bufio.NewWriter(conn), Message{Type: MsgPing, Seq: 2})
	if _, err := ReadMessage(br); err == nil {
		t.Fatal("round trip survived a kill-established partition")
	}
}

// TestFaultProxyPartitionModeString pins the names fault-schedule files
// and logs use.
func TestFaultProxyPartitionModeString(t *testing.T) {
	want := map[PartitionMode]string{
		PartitionOff:         "off",
		PartitionBoth:        "both",
		PartitionToBackend:   "to-backend",
		PartitionFromBackend: "from-backend",
		PartitionMode(99):    "unknown",
	}
	for mode, name := range want {
		if got := mode.String(); got != name {
			t.Fatalf("PartitionMode(%d).String() = %q, want %q", mode, got, name)
		}
	}
}
