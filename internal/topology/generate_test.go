package topology

import (
	"math"
	"testing"

	"gsso/internal/simrand"
)

// tinySpec is a small but structurally complete spec for fast tests.
func tinySpec(latency LatencyModel) Spec {
	return Spec{
		TransitDomains:        3,
		TransitNodesPerDomain: 3,
		StubsPerTransitNode:   2,
		NodesPerStub:          5,
		ExtraTransitEdgeProb:  0.4,
		ExtraStubEdgeProb:     0.3,
		ExtraInterDomainLinks: 2,
		Latency:               GTITMLatency(),
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		ok     bool
	}{
		{"valid", func(s *Spec) {}, true},
		{"no-domains", func(s *Spec) { s.TransitDomains = 0 }, false},
		{"no-transit-nodes", func(s *Spec) { s.TransitNodesPerDomain = 0 }, false},
		{"negative-stubs", func(s *Spec) { s.StubsPerTransitNode = -1 }, false},
		{"zero-stub-size", func(s *Spec) { s.NodesPerStub = 0 }, false},
		{"stubless-ok", func(s *Spec) { s.StubsPerTransitNode = 0; s.NodesPerStub = 0 }, true},
		{"bad-transit-prob", func(s *Spec) { s.ExtraTransitEdgeProb = 1.5 }, false},
		{"bad-stub-prob", func(s *Spec) { s.ExtraStubEdgeProb = -0.1 }, false},
		{"bad-extra-links", func(s *Spec) { s.ExtraInterDomainLinks = -1 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tinySpec(GTITMLatency())
			tc.mutate(&s)
			err := s.Validate()
			if (err == nil) != tc.ok {
				t.Fatalf("Validate() err = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestSpecTotals(t *testing.T) {
	s := tinySpec(GTITMLatency())
	if got, want := s.TotalNodes(), 9+9*2*5; got != want {
		t.Fatalf("TotalNodes = %d, want %d", got, want)
	}
	if got, want := s.TotalStubs(), 18; got != want {
		t.Fatalf("TotalStubs = %d, want %d", got, want)
	}
}

func TestPresetShapes(t *testing.T) {
	large := TSKLarge(GTITMLatency())
	small := TSKSmall(GTITMLatency())
	if large.TotalNodes() < 10000 || large.TotalNodes() > 11000 {
		t.Fatalf("tsk-large hosts = %d, want ~10k", large.TotalNodes())
	}
	if small.TotalNodes() < 10000 || small.TotalNodes() > 11000 {
		t.Fatalf("tsk-small hosts = %d, want ~10k", small.TotalNodes())
	}
	lt := large.TransitDomains * large.TransitNodesPerDomain
	st := small.TransitDomains * small.TransitNodesPerDomain
	if lt <= st {
		t.Fatalf("tsk-large backbone (%d) should exceed tsk-small (%d)", lt, st)
	}
	if small.NodesPerStub <= large.NodesPerStub {
		t.Fatal("tsk-small stubs should be denser")
	}
}

func TestScaled(t *testing.T) {
	s := TSKLarge(GTITMLatency()).Scaled(0.25)
	if s.NodesPerStub != 10 {
		t.Fatalf("scaled NodesPerStub = %d, want 10", s.NodesPerStub)
	}
	if TSKLarge(GTITMLatency()).Scaled(0.001).NodesPerStub != 1 {
		t.Fatal("scaling floor of 1 violated")
	}
}

func TestGenerateStructure(t *testing.T) {
	spec := tinySpec(GTITMLatency())
	net := MustGenerate(spec, simrand.New(1))
	if net.Len() != spec.TotalNodes() {
		t.Fatalf("Len = %d, want %d", net.Len(), spec.TotalNodes())
	}
	if net.TransitCount() != 9 {
		t.Fatalf("TransitCount = %d", net.TransitCount())
	}
	if net.StubCount() != 18 {
		t.Fatalf("StubCount = %d", net.StubCount())
	}
	if !net.Graph().Connected() {
		t.Fatal("generated topology is disconnected")
	}
	// First transitCount IDs are transit, the rest stub.
	for id := NodeID(0); int(id) < net.Len(); id++ {
		node := net.Node(id)
		wantClass := ClassStub
		if int(id) < net.TransitCount() {
			wantClass = ClassTransit
		}
		if node.Class != wantClass {
			t.Fatalf("node %d class = %v, want %v", id, node.Class, wantClass)
		}
		if node.ID != id {
			t.Fatalf("node %d carries ID %d", id, node.ID)
		}
		if wantClass == ClassTransit && node.Stub != -1 {
			t.Fatalf("transit node %d has stub %d", id, node.Stub)
		}
	}
	// Per-class edge counts: spanning trees put lower bounds in place.
	if net.EdgeCount(LinkTransitStub) != 18 {
		t.Fatalf("transit-stub links = %d, want 18 (one per stub)", net.EdgeCount(LinkTransitStub))
	}
	if net.EdgeCount(LinkCrossTransit) < 2 {
		t.Fatalf("cross-transit links = %d, want >= 2", net.EdgeCount(LinkCrossTransit))
	}
	if net.EdgeCount(LinkIntraStub) < 18*4 {
		t.Fatalf("intra-stub links = %d, want >= 72", net.EdgeCount(LinkIntraStub))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := tinySpec(GTITMLatency())
	a := MustGenerate(spec, simrand.New(7))
	b := MustGenerate(spec, simrand.New(7))
	for i := 0; i < 200; i++ {
		u := NodeID(i % a.Len())
		v := NodeID((i * 13) % a.Len())
		if a.Latency(u, v) != b.Latency(u, v) {
			t.Fatalf("nondeterministic latency for (%d,%d)", u, v)
		}
	}
	c := MustGenerate(spec, simrand.New(8))
	diff := 0
	for i := 0; i < 100; i++ {
		u := NodeID(i % a.Len())
		v := NodeID((i * 31) % a.Len())
		if u != v && a.Latency(u, v) != c.Latency(u, v) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical topologies")
	}
}

func TestGenerateRejectsInvalidSpec(t *testing.T) {
	s := tinySpec(GTITMLatency())
	s.TransitDomains = 0
	if _, err := Generate(s, simrand.New(1)); err == nil {
		t.Fatal("expected error for invalid spec")
	}
}

// TestLatencyMatchesDijkstra is the load-bearing validation: the O(1)
// structured latency must equal true shortest paths on the full graph.
func TestLatencyMatchesDijkstra(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	for _, seed := range seeds {
		rng := simrand.New(seed)
		spec := Spec{
			TransitDomains:        1 + rng.Intn(4),
			TransitNodesPerDomain: 1 + rng.Intn(4),
			StubsPerTransitNode:   rng.Intn(3),
			NodesPerStub:          1 + rng.Intn(6),
			ExtraTransitEdgeProb:  rng.Float64() * 0.5,
			ExtraStubEdgeProb:     rng.Float64() * 0.5,
			ExtraInterDomainLinks: rng.Intn(3),
			Latency:               GTITMLatency(),
		}
		net := MustGenerate(spec, rng.Split("gen"))
		for src := NodeID(0); int(src) < net.Len(); src++ {
			truth := net.Graph().Dijkstra(src)
			for dst := NodeID(0); int(dst) < net.Len(); dst++ {
				got := net.Latency(src, dst)
				if math.Abs(got-truth[dst]) > 1e-9 {
					t.Fatalf("seed %d: Latency(%d,%d) = %v, Dijkstra = %v (spec %+v)",
						seed, src, dst, got, truth[dst], spec)
				}
			}
		}
	}
}

func TestLatencyBasicProperties(t *testing.T) {
	net := MustGenerate(tinySpec(GTITMLatency()), simrand.New(5))
	for i := 0; i < 200; i++ {
		a := NodeID(i % net.Len())
		b := NodeID((i * 17) % net.Len())
		la, lb := net.Latency(a, b), net.Latency(b, a)
		if la != lb {
			t.Fatalf("asymmetric latency (%d,%d): %v vs %v", a, b, la, lb)
		}
		if a != b && la <= 0 {
			t.Fatalf("non-positive latency %v between distinct %d,%d", la, a, b)
		}
		if net.RTT(a, b) != 2*la {
			t.Fatal("RTT != 2*latency")
		}
	}
	if net.Latency(3, 3) != 0 {
		t.Fatal("self latency nonzero")
	}
}

func TestManualLatencyValues(t *testing.T) {
	net := MustGenerate(tinySpec(ManualLatency()), simrand.New(3))
	_ = net
	m := ManualLatency()
	rng := simrand.New(1)
	if m.CrossTransit.Draw(rng) != 20 || m.IntraTransit.Draw(rng) != 5 ||
		m.TransitStub.Draw(rng) != 0.5 || m.IntraStub.Draw(rng) != 1 {
		t.Fatal("manual latency constants drifted from DESIGN.md")
	}
}

func TestStubHostsAndAllHosts(t *testing.T) {
	net := MustGenerate(tinySpec(GTITMLatency()), simrand.New(2))
	stub := net.StubHosts()
	all := net.AllHosts()
	if len(all) != net.Len() {
		t.Fatalf("AllHosts len = %d", len(all))
	}
	if len(stub) != net.Len()-net.TransitCount() {
		t.Fatalf("StubHosts len = %d", len(stub))
	}
	for _, id := range stub {
		if net.Node(id).Class != ClassStub {
			t.Fatalf("StubHosts contains transit node %d", id)
		}
	}
}

func TestRandomStubHostsDistinct(t *testing.T) {
	net := MustGenerate(tinySpec(GTITMLatency()), simrand.New(2))
	hosts := net.RandomStubHosts(simrand.New(9), 20)
	seen := map[NodeID]struct{}{}
	for _, h := range hosts {
		if net.Node(h).Class != ClassStub {
			t.Fatalf("non-stub host %d", h)
		}
		if _, dup := seen[h]; dup {
			t.Fatalf("duplicate host %d", h)
		}
		seen[h] = struct{}{}
	}
}

func TestNearest(t *testing.T) {
	net := MustGenerate(tinySpec(GTITMLatency()), simrand.New(4))
	hosts := net.StubHosts()
	a := hosts[0]
	cands := hosts[:30]
	best, bestD := net.Nearest(a, cands)
	if best == None {
		t.Fatal("no nearest found")
	}
	if best == a {
		t.Fatal("nearest returned self")
	}
	for _, c := range cands {
		if c != a && net.Latency(a, c) < bestD {
			t.Fatalf("found closer candidate %d", c)
		}
	}
	if b, d := net.Nearest(a, []NodeID{a}); b != None || !math.IsInf(d, 1) {
		t.Fatal("self-only candidate list should yield None")
	}
}

func TestSameStub(t *testing.T) {
	net := MustGenerate(tinySpec(GTITMLatency()), simrand.New(4))
	first := NodeID(net.TransitCount())
	if !net.SameStub(first, first+1) {
		t.Fatal("adjacent stub hosts should share a stub")
	}
	if net.SameStub(first, first+NodeID(net.Spec().NodesPerStub)) {
		t.Fatal("hosts of different stubs reported as same")
	}
	if net.SameStub(0, first) {
		t.Fatal("transit node cannot share a stub")
	}
}

func TestIntraStubLatencySmallerThanCrossDomain(t *testing.T) {
	// With manual latencies, same-stub pairs must be strictly cheaper than
	// pairs crossing transit domains.
	net := MustGenerate(tinySpec(ManualLatency()), simrand.New(6))
	first := NodeID(net.TransitCount())
	sameStub := net.Latency(first, first+1)
	var crossDomain float64
	for id := first; int(id) < net.Len(); id++ {
		if net.Node(id).Domain != net.Node(first).Domain {
			crossDomain = net.Latency(first, id)
			break
		}
	}
	if crossDomain == 0 {
		t.Skip("no cross-domain stub host found")
	}
	if sameStub >= crossDomain {
		t.Fatalf("same-stub latency %v >= cross-domain %v", sameStub, crossDomain)
	}
}

func TestNetworkString(t *testing.T) {
	net := MustGenerate(tinySpec(GTITMLatency()), simrand.New(4))
	if net.String() == "" {
		t.Fatal("String empty")
	}
}

func TestStublessSpec(t *testing.T) {
	s := Spec{
		TransitDomains:        2,
		TransitNodesPerDomain: 3,
		Latency:               ManualLatency(),
	}
	net := MustGenerate(s, simrand.New(1))
	if net.Len() != 6 || net.StubCount() != 0 {
		t.Fatalf("stubless network wrong shape: %v", net)
	}
	if !net.Graph().Connected() {
		t.Fatal("stubless backbone disconnected")
	}
}

func BenchmarkLatencyQuery(b *testing.B) {
	net := MustGenerate(TSKLarge(GTITMLatency()), simrand.New(1))
	hosts := net.RandomStubHosts(simrand.New(2), 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Latency(hosts[i%1000], hosts[(i*7+3)%1000])
	}
}

func BenchmarkGenerateTSKLarge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		MustGenerate(TSKLarge(GTITMLatency()), simrand.New(uint64(i)))
	}
}

// BenchmarkGenerateSizedWide100k is the topology layer's share of a
// 10^5-host world build (the ext-scale trajectory and the sim-scale
// benchmark workload): 2,560 preset-depth stubs.
func BenchmarkGenerateSizedWide100k(b *testing.B) {
	spec := TSKLarge(GTITMLatency()).SizedWide(100_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MustGenerate(spec, simrand.New(uint64(i)))
	}
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "ms/op")
}
