package wire

import (
	"testing"
	"time"

	"gsso/internal/obs/span"
)

// Serve/dial fast-path benchmarks: the resilience layer (retry wrapper,
// breaker check) must not measurably slow the no-fault path. Compare
// PingDirect (bare pooled Transport, single attempt) against PingResilient
// (node-side call through breaker + retry machinery) — the two should sit
// within noise of each other, since a healthy call takes the first
// attempt with no backoff and one mutex-guarded breaker check.

func benchTargets(b *testing.B) (*Node, *Node) {
	b.Helper()
	server, err := NewNode("127.0.0.1:0", stubCfg(), nil, time.Minute)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = server.Close() })
	client, err := NewNode("127.0.0.1:0", stubCfg(), nil, time.Minute)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = client.Close() })
	return server, client
}

func BenchmarkPingDirect(b *testing.B) {
	server, _ := benchTargets(b)
	tr := NewTransport(1)
	defer tr.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.RoundTrip(server.Addr(), Message{Type: MsgPing}, time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPingResilient(b *testing.B) {
	server, client := benchTargets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.ping(span.Context{}, server.Addr(), time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServeQuery(b *testing.B) {
	server, _ := benchTargets(b)
	rec := Record{Addr: "x:1", Number: 12, ExpiresUnixMilli: time.Now().Add(time.Hour).UnixMilli()}
	if _, err := call(server.Addr(), Message{Type: MsgStore, Record: &rec}, time.Second); err != nil {
		b.Fatal(err)
	}
	tr := NewTransport(1)
	defer tr.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.RoundTrip(server.Addr(), Message{Type: MsgQuery, Number: 12, Max: 4}, time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// reportPoolMetrics attaches the transport's pooling behavior to a
// benchmark result: conns/op (new dials per operation — ~0 at steady
// state for a pooled transport) and reuse-ratio
// (fraction of calls served on an already-open connection).
func reportPoolMetrics(b *testing.B, n *Node, dialsBefore, reuseBefore float64) {
	b.Helper()
	snap := n.Registry().Snapshot()
	dials, _ := snap.Value("wire_conn_dials_total")
	reuse, _ := snap.Value("wire_conn_reuse_total")
	dials -= dialsBefore
	reuse -= reuseBefore
	b.ReportMetric(dials/float64(b.N), "conns/op")
	if dials+reuse > 0 {
		b.ReportMetric(reuse/(dials+reuse), "reuse-ratio")
	}
}

func poolCounters(n *Node) (dials, reuse float64) {
	snap := n.Registry().Snapshot()
	dials, _ = snap.Value("wire_conn_dials_total")
	reuse, _ = snap.Value("wire_conn_reuse_total")
	return dials, reuse
}

// BenchmarkStorePooled is a store through the node's persistent
// transport: steady-state conns/op must sit at ~0.
func BenchmarkStorePooled(b *testing.B) {
	server, client := benchTargets(b)
	rec := Record{Addr: "x:1", Number: 12, ExpiresUnixMilli: time.Now().Add(time.Hour).UnixMilli()}
	// Warm the pool so the handful of initial dials is not billed to ops.
	if _, _, err := client.rpc(span.Context{}, server.Addr(), Message{Type: MsgStore, Record: &rec}, time.Second); err != nil {
		b.Fatal(err)
	}
	dials, reuse := poolCounters(client)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := client.rpc(span.Context{}, server.Addr(), Message{Type: MsgStore, Record: &rec}, time.Second); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportPoolMetrics(b, client, dials, reuse)
}

// BenchmarkPingPooled measures the pooled RTT path that feeds landmark
// vectors: round trip on an established connection, no dial in the loop.
func BenchmarkPingPooled(b *testing.B) {
	server, client := benchTargets(b)
	if _, err := client.ping(span.Context{}, server.Addr(), time.Second); err != nil {
		b.Fatal(err)
	}
	dials, reuse := poolCounters(client)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.ping(span.Context{}, server.Addr(), time.Second); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportPoolMetrics(b, client, dials, reuse)
}

// BenchmarkPublishBatch64 ships a full 64-record batch frame per op —
// the coalesced refresh path, 64 logical publishes on one round trip.
func BenchmarkPublishBatch64(b *testing.B) {
	server, client := benchTargets(b)
	exp := time.Now().Add(time.Hour).UnixMilli()
	recs := make([]Record, 64)
	for i := range recs {
		recs[i] = Record{Addr: "x:1", Number: uint64(i), ExpiresUnixMilli: exp}
	}
	if _, _, err := client.rpc(span.Context{}, server.Addr(), Message{Type: MsgPublishBatch, Records: recs}, time.Second); err != nil {
		b.Fatal(err)
	}
	dials, reuse := poolCounters(client)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := client.rpc(span.Context{}, server.Addr(), Message{Type: MsgPublishBatch, Records: recs}, time.Second); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportPoolMetrics(b, client, dials, reuse)
}

func BenchmarkStoreReplicated(b *testing.B) {
	// Full Publish path minus measurement: store one record at both ring
	// owners, the k=2 soft-state write amplification.
	server, client := benchTargets(b)
	server2, err := NewNode("127.0.0.1:0", stubCfg(), nil, time.Minute)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = server2.Close() })
	rec := Record{Addr: client.Addr(), Number: 5, ExpiresUnixMilli: time.Now().Add(time.Hour).UnixMilli()}
	owners := []string{server.Addr(), server2.Addr()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, o := range owners {
			if _, _, err := client.rpc(span.Context{}, o, Message{Type: MsgStore, Record: &rec}, time.Second); err != nil {
				b.Fatal(err)
			}
		}
	}
}
