package topology

import (
	"math"
	"runtime"
	"testing"

	"gsso/internal/simrand"
)

// hubSpec is a spec whose stubs exceed the hub threshold, forcing the
// factored hub-and-spoke path.
func hubSpec() Spec {
	return Spec{
		TransitDomains:        2,
		TransitNodesPerDomain: 2,
		StubsPerTransitNode:   1,
		NodesPerStub:          hubStubThreshold + 44,
		ExtraTransitEdgeProb:  0.3,
		ExtraStubEdgeProb:     0.1, // ignored on the hub path, deliberately nonzero
		ExtraInterDomainLinks: 1,
		Latency:               GTITMLatency(),
	}
}

// TestHubStubLatencyMatchesDijkstra extends the load-bearing O(1)-vs-truth
// validation to the factored path: a star-wired stub's egress-sum distance
// must equal true shortest paths on the raw graph, not approximate them.
func TestHubStubLatencyMatchesDijkstra(t *testing.T) {
	if testing.Short() {
		t.Skip("all-pairs Dijkstra on 1200 hosts")
	}
	net := MustGenerate(hubSpec(), simrand.New(11))
	var scratch DijkstraScratch
	truth := make([]float64, net.Len())
	// Sample sources: all transit nodes plus a spread of stub hosts from
	// each stub (full all-pairs over 1200 hosts is wasteful; per-source
	// verification against every destination already covers all pair kinds).
	sources := []NodeID{0, 1, 2, 3}
	for si := 0; si < net.StubCount(); si++ {
		first := NodeID(net.TransitCount() + si*net.Spec().NodesPerStub)
		sources = append(sources, first, first+1, first+57, first+NodeID(net.Spec().NodesPerStub-1))
	}
	for _, src := range sources {
		net.Graph().DijkstraInto(src, truth, &scratch)
		for dst := NodeID(0); int(dst) < net.Len(); dst++ {
			got := net.Latency(src, dst)
			if math.Abs(got-truth[dst]) > 1e-9 {
				t.Fatalf("Latency(%d,%d) = %v, Dijkstra = %v", src, dst, got, truth[dst])
			}
		}
	}
}

func TestHubStubUsesFactoredStorage(t *testing.T) {
	net := MustGenerate(hubSpec(), simrand.New(1))
	if !net.hubStubs {
		t.Fatal("network not marked hub-and-spoke")
	}
	for si := 0; si < net.StubCount(); si++ {
		s := &net.stubs[si]
		if len(s.egress) != s.size {
			t.Fatalf("stub %d egress len = %d, want %d", si, len(s.egress), s.size)
		}
		if s.egress[0] != 0 {
			t.Fatalf("stub %d hub egress = %v, want 0", si, s.egress[0])
		}
		for i := 1; i < s.size; i++ {
			if s.egress[i] <= 0 {
				t.Fatalf("stub %d egress[%d] = %v, want > 0", si, i, s.egress[i])
			}
		}
		// Intra-stub queries are answered from egress: no matrix, ever.
		if got, want := net.Latency(s.first+3, s.first+9), s.egress[3]+s.egress[9]; got != want {
			t.Fatalf("stub %d: Latency = %v, egress sum = %v", si, got, want)
		}
		if s.dist.Load() != nil {
			t.Fatalf("stub %d carries a dense matrix on the hub path", si)
		}
	}
}

func TestHubThresholdBoundary(t *testing.T) {
	at := hubSpec()
	at.NodesPerStub = hubStubThreshold
	net := MustGenerate(at, simrand.New(1))
	if net.hubStubs {
		t.Fatal("stub exactly at threshold should keep the exact path")
	}
	over := hubSpec()
	over.NodesPerStub = hubStubThreshold + 1
	net = MustGenerate(over, simrand.New(1))
	if !net.hubStubs {
		t.Fatal("stub over threshold should take the factored path")
	}
}

func TestSizedWide(t *testing.T) {
	base := TSKLarge(GTITMLatency())
	sized := base.SizedWide(100_000)
	if got := sized.TotalNodes(); got < 100_000 || got > 110_000 {
		t.Fatalf("SizedWide(1e5) yields %d nodes, want [100000,110000]", got)
	}
	if sized.NodesPerStub != base.NodesPerStub {
		t.Fatal("SizedWide must preserve stub density")
	}
	tiny := base.SizedWide(1)
	if tiny.StubsPerTransitNode != 1 {
		t.Fatalf("SizedWide floor = %d stubs, want 1", tiny.StubsPerTransitNode)
	}
	// Stubless spec passes through untouched.
	stubless := Spec{TransitDomains: 1, TransitNodesPerDomain: 2, Latency: ManualLatency()}
	if stubless.SizedWide(100).StubsPerTransitNode != 0 {
		t.Fatal("SizedWide mutated a stubless spec")
	}
}

// TestGenerateAllocBudget is the regression gate for what a ~10^5-host
// Generate allocates, on both stub paths. Deep stubs (hub path): before the
// factored layout a single 1000-host stub's matrix alone was 8 MB (size²
// float64s) and the generate allocated gigabytes; it now takes 11 MB. Wide
// preset-depth stubs (exact path, the ext-scale and sim-scale shape): 60 MB
// while every stub's dense matrix was filled eagerly, 28 MB now that only
// the egress columns are. The budgets are those figures plus headroom.
func TestGenerateAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("generates 10^5-node topologies")
	}
	deep := TSKLarge(GTITMLatency()).Scaled(10) // 400 hosts/stub -> hub path
	deep.StubsPerTransitNode = 4
	for _, c := range []struct {
		name   string
		spec   Spec
		budget uint64
	}{
		{"deep-hub", deep, 16 << 20},
		{"wide-exact", TSKLarge(GTITMLatency()).SizedWide(100_000), 40 << 20},
	} {
		t.Run(c.name, func(t *testing.T) {
			if n := c.spec.TotalNodes(); n < 100_000 {
				t.Fatalf("spec yields %d nodes, want >= 1e5", n)
			}
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			net := MustGenerate(c.spec, simrand.New(1))
			runtime.ReadMemStats(&after)
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > c.budget {
				t.Fatalf("generating %d nodes allocated %d MB cumulative, budget %d MB",
					net.Len(), alloc>>20, c.budget>>20)
			}
			if net.Len() != c.spec.TotalNodes() {
				t.Fatalf("Len = %d, want %d", net.Len(), c.spec.TotalNodes())
			}
			// The latency path must stay O(1) and well-formed at this scale.
			hosts := net.RandomStubHosts(simrand.New(2), 64)
			for _, a := range hosts {
				for _, b := range hosts {
					d := net.Latency(a, b)
					if a != b && (d <= 0 || math.IsInf(d, 0) || math.IsNaN(d)) {
						t.Fatalf("Latency(%d,%d) = %v", a, b, d)
					}
					if d != net.Latency(b, a) {
						t.Fatalf("asymmetric latency at scale (%d,%d)", a, b)
					}
				}
			}
		})
	}
}
