package wire

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"gsso/internal/obs"
)

// startNode spins up one node with a private registry for metric tests.
func startNode(t *testing.T, cfg SpaceConfig, peers []string) *Node {
	t.Helper()
	n, err := NewNode("127.0.0.1:0", cfg, peers, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

func stubCfg() SpaceConfig {
	return SpaceConfig{Landmarks: []string{"stub"}, IndexDims: 1, BitsPerDim: 4, MaxRTTMs: 50}
}

func TestServeMetricsCountRequests(t *testing.T) {
	n := startNode(t, stubCfg(), nil)
	timeout := 2 * time.Second

	if _, err := call(n.Addr(), Message{Type: MsgPing}, timeout); err != nil {
		t.Fatal(err)
	}
	rec := Record{Addr: "x:1", Number: 3, ExpiresUnixMilli: time.Now().Add(time.Minute).UnixMilli()}
	if _, err := call(n.Addr(), Message{Type: MsgStore, Record: &rec}, timeout); err != nil {
		t.Fatal(err)
	}
	if _, err := call(n.Addr(), Message{Type: MsgQuery, Number: 3, Max: 4}, timeout); err != nil {
		t.Fatal(err)
	}
	// A request of a type the node does not serve (a response type)
	// lands in the "other" error counter.
	if _, err := call(n.Addr(), Message{Type: MsgPong}, timeout); err == nil {
		t.Fatal("pong request did not error")
	}

	snap := n.Registry().Snapshot()
	for _, tc := range []struct {
		typ  string
		want float64
	}{{"ping", 1}, {"store", 1}, {"query", 1}, {"other", 1}} {
		if v, ok := snap.Value("wire_requests_total", tc.typ); !ok || v != tc.want {
			t.Fatalf("wire_requests_total{type=%q} = %v/%v, want %v", tc.typ, v, ok, tc.want)
		}
	}
	if v, _ := snap.Value("wire_request_errors_total", "other"); v != 1 {
		t.Fatalf("error counter = %v, want 1", v)
	}
	if v, _ := snap.Value("wire_records"); v != 1 {
		t.Fatalf("wire_records = %v, want 1", v)
	}
	f, ok := snap.Family("wire_serve_latency_ms")
	if !ok || f.Series[0].Hist.Count < 3 {
		t.Fatalf("serve histogram missing or empty: %+v", f)
	}
}

func TestRegistryCountsEachServedRequest(t *testing.T) {
	n := startNode(t, stubCfg(), nil)
	timeout := 2 * time.Second
	if _, err := call(n.Addr(), Message{Type: MsgPing}, timeout); err != nil {
		t.Fatal(err)
	}
	if v, ok := n.Registry().Snapshot().Value("wire_requests_total", "ping"); !ok || v != 1 {
		t.Fatalf("ping count = %v/%v, want 1", v, ok)
	}
	// Each served request is counted by the time its reply arrives, so
	// the next snapshot sees it.
	if _, err := call(n.Addr(), Message{Type: MsgPing}, timeout); err != nil {
		t.Fatal(err)
	}
	if v, _ := n.Registry().Snapshot().Value("wire_requests_total", "ping"); v != 2 {
		t.Fatalf("ping count = %v, want 2", v)
	}
}

func TestDialMetricsObserved(t *testing.T) {
	lm := startNode(t, stubCfg(), nil)
	cfg := SpaceConfig{Landmarks: []string{lm.Addr()}, IndexDims: 1, BitsPerDim: 4, MaxRTTMs: 50}
	n := startNode(t, cfg, []string{lm.Addr()})
	if _, err := n.MeasureVector(2, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	f, ok := n.Registry().Snapshot().Family("wire_dial_rtt_ms")
	if !ok || f.Series[0].Hist.Count != 2 {
		t.Fatalf("dial histogram = %+v, want 2 observations", f)
	}
}

func TestSharedRegistryAggregates(t *testing.T) {
	reg := obs.NewRegistry()
	a, err := NewNodeWithRegistry("127.0.0.1:0", stubCfg(), nil, time.Minute, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewNodeWithRegistry("127.0.0.1:0", stubCfg(), nil, time.Minute, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if a.Registry() != reg || b.Registry() != reg {
		t.Fatal("nodes did not adopt the shared registry")
	}
	timeout := 2 * time.Second
	if _, err := call(a.Addr(), Message{Type: MsgPing}, timeout); err != nil {
		t.Fatal(err)
	}
	if _, err := call(b.Addr(), Message{Type: MsgPing}, timeout); err != nil {
		t.Fatal(err)
	}
	if v, _ := reg.Snapshot().Value("wire_requests_total", "ping"); v != 2 {
		t.Fatalf("aggregated pings = %v, want 2", v)
	}
}

func TestStatsSnapshotSerializes(t *testing.T) {
	// The snapshot must survive the JSON export (/metrics.json) with
	// label values intact (the \x1f series separator never leaks).
	n := startNode(t, stubCfg(), nil)
	if _, err := call(n.Addr(), Message{Type: MsgPing}, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(n.Registry().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	if v, ok := snap.Value("wire_requests_total", "ping"); !ok || v != 1 {
		t.Fatalf("decoded ping count = %v/%v, want 1", v, ok)
	}
	for _, f := range snap.Families {
		for _, s := range f.Series {
			for _, lv := range s.LabelValues {
				if strings.ContainsRune(lv, '\x1f') {
					t.Fatalf("label value %q contains separator", lv)
				}
			}
		}
	}
}
