package wire

import (
	"bufio"
	"bytes"
	"sync"
	"testing"
	"time"

	"gsso/internal/obs/span"
)

// TestTraceFieldCompat pins the wire contract of the binary trace flag:
// an untraced frame leaves the flag clear and carries no trace bytes, so
// it decodes to a nil context; a traced frame sets the flag and
// round-trips its context bit-exact; a flagged frame missing its trace
// bytes is rejected rather than decoded as untraced.
func TestTraceFieldCompat(t *testing.T) {
	encode := func(m Message) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := writeMessage(bufio.NewWriter(&buf), m); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	plain := encode(Message{Type: MsgStore, Seq: 4})
	if plain[3]&binFlagTrace != 0 {
		t.Fatalf("untraced frame sets the trace flag: flags %#x", plain[3])
	}
	m, err := ReadMessage(bufio.NewReader(bytes.NewReader(plain)))
	if err != nil {
		t.Fatal(err)
	}
	if m.Trace != nil {
		t.Fatalf("untraced frame decoded Trace=%+v, want nil", m.Trace)
	}

	want := span.Context{TraceID: 0xdeadbeef, SpanID: 0xcafe, Sampled: true}
	traced := encode(Message{Type: MsgStore, Seq: 4, Trace: &want})
	if traced[3]&binFlagTrace == 0 {
		t.Fatalf("traced frame leaves the trace flag clear: flags %#x", traced[3])
	}
	if extra := len(traced) - len(plain); extra != 17 {
		t.Fatalf("trace context costs %d bytes, want 17 (two ids + sampled bit)", extra)
	}
	got, err := ReadMessage(bufio.NewReader(bytes.NewReader(traced)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace == nil || *got.Trace != want {
		t.Fatalf("trace round trip: got %+v, want %+v", got.Trace, want)
	}

	flagged := append([]byte(nil), plain...)
	flagged[3] |= binFlagTrace
	if _, err := ReadMessage(bufio.NewReader(bytes.NewReader(flagged))); err == nil {
		t.Fatal("frame flagged as traced but carrying no trace bytes was accepted")
	}
}

// tracedNode builds a wire node with its own 1-in-1 sampling collector.
func tracedNode(t *testing.T, listen string, cfg SpaceConfig, peers []string, opts ...NodeOption) *Node {
	t.Helper()
	col := span.NewCollector(2048, 1)
	n, err := NewNode(listen, cfg, peers, time.Minute,
		append([]NodeOption{WithTracing(col)}, opts...)...)
	if err != nil {
		t.Fatalf("node %s: %v", listen, err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// TestTracePropagationAcrossWire checks the basic cross-process link: a
// traced publish on one node produces serve-side spans on the replica
// owner whose parent IDs point at the publisher's client spans.
func TestTracePropagationAcrossWire(t *testing.T) {
	stub := SpaceConfig{Landmarks: []string{"boot"}, IndexDims: 1, BitsPerDim: 4, MaxRTTMs: 50}
	boot, err := NewNode("127.0.0.1:0", stub, nil, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	aAddr := boot.Addr()
	if err := boot.Close(); err != nil {
		t.Fatal(err)
	}
	cfg := SpaceConfig{Landmarks: []string{aAddr}, IndexDims: 1, BitsPerDim: 4, MaxRTTMs: 50}
	b := tracedNode(t, "127.0.0.1:0", cfg, nil)
	a := tracedNode(t, aAddr, cfg, []string{aAddr, b.Addr()}, WithReplication(2))

	if _, err := a.Publish(1, 2*time.Second); err != nil {
		t.Fatalf("publish: %v", err)
	}

	aSpans := a.Spans().Snapshot()
	var root span.Span
	byID := map[uint64]span.Span{}
	for _, s := range aSpans {
		byID[s.SpanID] = s
		if s.Op == "publish" && s.Root() {
			root = s
		}
	}
	if root.SpanID == 0 {
		t.Fatalf("no publish root recorded: %+v", aSpans)
	}
	stores := 0
	for _, s := range aSpans {
		if s.Op != "store" {
			continue
		}
		stores++
		if s.TraceID != root.TraceID || s.ParentID != root.SpanID {
			t.Fatalf("store span not parented to publish root: %+v (root %+v)", s, root)
		}
	}
	if stores != 2 {
		t.Fatalf("want 2 store spans (k=2), got %d", stores)
	}

	// B continued the trace: its serve.store span parents to A's store
	// span targeting B, carrying the same trace ID across the process
	// boundary.
	var serveStore span.Span
	for _, s := range b.Spans().Snapshot() {
		if s.Op == "serve.store" {
			serveStore = s
		}
	}
	if serveStore.SpanID == 0 {
		t.Fatalf("replica owner recorded no serve.store span: %+v", b.Spans().Snapshot())
	}
	if serveStore.TraceID != root.TraceID {
		t.Fatalf("serve.store trace %x, want %x", serveStore.TraceID, root.TraceID)
	}
	parent, ok := byID[serveStore.ParentID]
	if !ok || parent.Op != "store" || parent.Peer != b.Addr() {
		t.Fatalf("serve.store parent %x does not resolve to the store span aimed at B (%+v)", serveStore.ParentID, parent)
	}
}

// TestTraceSpansUnderFaults drives a traced find-nearest through a
// failover: both ring owners sit behind fault proxies to the same
// backend, the primary drops every connection, and the resulting span
// tree must show the failed query (attempt-counted, outcome error), the
// successful failover query, and a consistent parent chain with no
// dangling IDs across both nodes' buffers.
func TestTraceSpansUnderFaults(t *testing.T) {
	stub := SpaceConfig{Landmarks: []string{"boot"}, IndexDims: 1, BitsPerDim: 4, MaxRTTMs: 50}
	boot, err := NewNode("127.0.0.1:0", stub, nil, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	aAddr := boot.Addr()
	if err := boot.Close(); err != nil {
		t.Fatal(err)
	}
	cfg := SpaceConfig{Landmarks: []string{aAddr}, IndexDims: 1, BitsPerDim: 4, MaxRTTMs: 50}

	// B owns the shard; B publishes its own record so A has a candidate.
	bCol := span.NewCollector(2048, 1)
	b, err := NewNode("127.0.0.1:0", cfg, nil, time.Minute, WithTracing(bCol))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	// Seeded against B as landmark: A's listener does not exist yet.
	seedCfg := SpaceConfig{Landmarks: []string{b.Addr()}, IndexDims: 1, BitsPerDim: 4, MaxRTTMs: 50}
	bSelf, err := NewNode("127.0.0.1:0", seedCfg, []string{b.Addr()}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer bSelf.Close()
	if _, err := bSelf.Publish(1, 2*time.Second); err != nil {
		t.Fatalf("seed publish: %v", err)
	}

	// Both of A's ring owners are proxies to B, so whichever the ring
	// orders first can be faulted deterministically.
	p1, err := NewFaultProxy(b.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewFaultProxy(b.Addr(), 2)
	if err != nil {
		t.Fatal(err)
	}

	pol := RetryPolicy{MaxAttempts: 2, BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond}
	a := tracedNode(t, aAddr, cfg, []string{p1.Addr(), p2.Addr()},
		WithReplication(2), WithRetryPolicy(pol))
	// A must close before the proxies so their pipes drain promptly.
	t.Cleanup(func() { p1.Close(); p2.Close() })

	vec, err := a.MeasureVector(1, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	num, err := cfg.Number(vec)
	if err != nil {
		t.Fatal(err)
	}
	primary := a.OwnerOf(num)
	for _, p := range []*FaultProxy{p1, p2} {
		if p.Addr() == primary {
			p.SetLoss(1)
		}
	}

	if _, _, err := a.FindNearest(2, 2*time.Second); err != nil {
		t.Fatalf("find-nearest should fail over to the replica owner: %v", err)
	}

	aSpans := a.Spans().Snapshot()
	var root span.Span
	for _, s := range aSpans {
		if s.Op == "find-nearest" && s.Root() {
			root = s
		}
	}
	if root.SpanID == 0 {
		t.Fatalf("no find-nearest root: %+v", aSpans)
	}
	var failed, ok []span.Span
	for _, s := range aSpans {
		if s.Op != "query" || s.TraceID != root.TraceID {
			continue
		}
		if s.ParentID != root.SpanID {
			t.Fatalf("query span not parented to root: %+v", s)
		}
		switch s.Outcome {
		case span.OutcomeOK:
			ok = append(ok, s)
		case span.OutcomeError:
			failed = append(failed, s)
		}
	}
	if len(failed) != 1 || len(ok) != 1 {
		t.Fatalf("want 1 failed + 1 successful query span, got %d failed %d ok: %+v", len(failed), len(ok), aSpans)
	}
	if failed[0].Peer != primary {
		t.Errorf("failed query aimed at %s, want faulted primary %s", failed[0].Peer, primary)
	}
	if failed[0].Attempts != pol.MaxAttempts {
		t.Errorf("failed query attempts = %d, want retry loop exhausted at %d", failed[0].Attempts, pol.MaxAttempts)
	}
	if ok[0].Attempts != 1 {
		t.Errorf("failover query attempts = %d, want 1", ok[0].Attempts)
	}

	// Cross-buffer consistency: merge both nodes' spans for this trace;
	// every non-root parent must resolve.
	all := append(a.Spans().ByTrace(root.TraceID), b.Spans().ByTrace(root.TraceID)...)
	ids := map[uint64]bool{}
	for _, s := range all {
		ids[s.SpanID] = true
	}
	serveQueries := 0
	for _, s := range all {
		if !s.Root() && !ids[s.ParentID] {
			t.Errorf("span %s on %s has dangling parent %x", s.Op, s.Node, s.ParentID)
		}
		if s.Op == "serve.query" {
			serveQueries++
		}
	}
	if serveQueries == 0 {
		t.Error("backend recorded no serve.query span for the failover trace")
	}
}

// TestTraceRingSurvivesConcurrentPublishScrape hammers a live node with
// concurrent traced publishes while scraping its span ring — the
// -race run of this test is the ring buffer's integrity gate.
func TestTraceRingSurvivesConcurrentPublishScrape(t *testing.T) {
	stub := SpaceConfig{Landmarks: []string{"boot"}, IndexDims: 1, BitsPerDim: 4, MaxRTTMs: 50}
	boot, err := NewNode("127.0.0.1:0", stub, nil, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	aAddr := boot.Addr()
	if err := boot.Close(); err != nil {
		t.Fatal(err)
	}
	cfg := SpaceConfig{Landmarks: []string{aAddr}, IndexDims: 1, BitsPerDim: 4, MaxRTTMs: 50}
	b := tracedNode(t, "127.0.0.1:0", cfg, nil)
	a := tracedNode(t, aAddr, cfg, []string{aAddr, b.Addr()}, WithReplication(2))

	const publishers = 4
	var pubs sync.WaitGroup
	for i := 0; i < publishers; i++ {
		pubs.Add(1)
		go func() {
			defer pubs.Done()
			for j := 0; j < 20; j++ {
				if _, err := a.Publish(1, 2*time.Second); err != nil {
					t.Errorf("publish under hammer: %v", err)
					return
				}
			}
		}()
	}
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, s := range a.Spans().Snapshot() {
					if s.Outcome == "" {
						t.Error("scraped a torn span: empty outcome")
						return
					}
				}
				b.Spans().Snapshot()
			}
		}
	}()
	pubs.Wait()
	close(stop)
	scraper.Wait()
	if len(a.Spans().Snapshot()) == 0 {
		t.Fatal("hammer recorded no spans")
	}
}
