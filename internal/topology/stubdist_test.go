package topology

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"gsso/internal/simrand"
)

// Stub distances on demand: Generate computes each stub's egress column and
// nothing else; the dense matrix appears on the first intra-stub query. The
// reference throughout is what earlier revisions did eagerly for every stub:
// a stub-local graph indexed from 0 and one DijkstraInto per host.

// oldStubMatrix rebuilds stub s's local graph and its dense all-pairs
// matrix the old way. The local graph received every intra-stub AddEdge the
// full graph received, in the same order, so its adjacency lists are the
// full graph's with the IDs shifted and the uplink left out.
func oldStubMatrix(net *Network, s *stubDomain) []float64 {
	local := NewGraph(s.size)
	for i := range local.adj {
		for _, arc := range net.graph.adj[int(s.first)+i] {
			if arc.To >= s.first && int(arc.To) < int(s.first)+s.size {
				local.adj[i] = append(local.adj[i], Arc{To: arc.To - s.first, W: arc.W})
			}
		}
	}
	dist := make([]float64, s.size*s.size)
	var scratch DijkstraScratch
	for i := 0; i < s.size; i++ {
		local.DijkstraInto(NodeID(i), dist[i*s.size:(i+1)*s.size], &scratch)
	}
	return dist
}

func denseStubs(net *Network) int {
	n := 0
	for si := range net.stubs {
		if net.stubs[si].dist.Load() != nil {
			n++
		}
	}
	return n
}

// TestStubDistancesMatchEagerMatrices is the differential gate for the
// on-demand design: on every stub of six worlds, egress is column 0 of the
// old matrix and the lazily filled matrix is the old matrix, bit for bit.
// Column 0 is d(i→0); d(0→i) differs from it in the last ulp now and then,
// which is why neither a transposed row nor an approximate comparison would
// do (the last sub-check shows the asymmetry is real).
func TestStubDistancesMatchEagerMatrices(t *testing.T) {
	specs := map[string]Spec{
		"tsk-large":      TSKLarge(GTITMLatency()),
		"tsk-small":      TSKSmall(GTITMLatency()),
		"scaled-manual":  TSKLarge(ManualLatency()).Scaled(0.4), // constant weights: every tie there is
		"sizedwide-3e4":  TSKLarge(GTITMLatency()).SizedWide(30_000),
		"single-host":    {TransitDomains: 1, TransitNodesPerDomain: 2, StubsPerTransitNode: 2, NodesPerStub: 1, Latency: GTITMLatency()},
		"tree-only-stub": {TransitDomains: 1, TransitNodesPerDomain: 2, StubsPerTransitNode: 3, NodesPerStub: 25, Latency: GTITMLatency()},
	}
	asymmetric := 0
	for name, spec := range specs {
		net := MustGenerate(spec, simrand.New(3))
		if net.hubStubs {
			t.Fatalf("%s: spec takes the hub path, nothing to compare", name)
		}
		for si := range net.stubs {
			s := &net.stubs[si]
			want := oldStubMatrix(net, s)
			for i := 0; i < s.size; i++ {
				if math.Float64bits(s.egress[i]) != math.Float64bits(want[i*s.size]) {
					t.Fatalf("%s stub %d: egress[%d] = %x, old matrix column 0 holds %x",
						name, si, i, math.Float64bits(s.egress[i]), math.Float64bits(want[i*s.size]))
				}
				if want[i*s.size] != want[i] {
					asymmetric++
				}
			}
			if s.dist.Load() != nil {
				t.Fatalf("%s stub %d: dense matrix exists before any intra-stub query", name, si)
			}
			got := net.stubMatrix(s)
			for k := range want {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("%s stub %d: lazy matrix [%d][%d] = %x, old matrix holds %x",
						name, si, k/s.size, k%s.size, math.Float64bits(got[k]), math.Float64bits(want[k]))
				}
			}
			// And through the public query, both endpoints in the stub.
			a, b := s.first+NodeID(s.size-1), s.first+NodeID(s.size/2)
			if got, want := net.Latency(a, b), want[(s.size-1)*s.size+s.size/2]; a != b && got != want {
				t.Fatalf("%s stub %d: Latency(%d,%d) = %v, old matrix holds %v", name, si, a, b, got, want)
			}
		}
	}
	if asymmetric == 0 {
		t.Fatal("d(i→0) == d(0→i) everywhere: the test no longer shows why column 0 needs its own runs")
	}
}

// TestNoDenseMatrixUntilIntraStubQuery pins the saving: Generate leaves no
// matrix behind, cross-stub and transit queries create none, and an
// intra-stub query creates its own stub's and no other.
func TestNoDenseMatrixUntilIntraStubQuery(t *testing.T) {
	net := MustGenerate(TSKLarge(GTITMLatency()).Scaled(0.3), simrand.New(1))
	if n := denseStubs(net); n != 0 {
		t.Fatalf("%d dense matrices right after Generate", n)
	}
	hosts := net.AllHosts()
	for i, a := range hosts {
		b := hosts[(i*7919+13)%len(hosts)]
		if !net.SameStub(a, b) {
			net.Latency(a, b)
		}
	}
	if n := denseStubs(net); n != 0 {
		t.Fatalf("%d dense matrices after cross-stub queries only", n)
	}
	s := &net.stubs[net.StubCount()/2]
	net.Latency(s.first+1, s.first+2)
	if s.dist.Load() == nil || denseStubs(net) != 1 {
		t.Fatalf("after one intra-stub query: own matrix present = %t, matrices in total = %d",
			s.dist.Load() != nil, denseStubs(net))
	}
	first := s.dist.Load()
	net.Latency(s.first+2, s.first+3)
	if s.dist.Load() != first {
		t.Fatal("second intra-stub query replaced the memoised matrix")
	}
}

// TestConcurrentFirstIntraStubQuery races goroutines into the first
// intra-stub query of the same stubs (run under -race): whichever copy of a
// matrix wins the CAS, every caller must read the values a quiet network
// returns.
func TestConcurrentFirstIntraStubQuery(t *testing.T) {
	spec := TSKLarge(GTITMLatency()).Scaled(0.3)
	quiet := MustGenerate(spec, simrand.New(4))
	const stubs, pairs = 6, 8
	type pair struct{ a, b NodeID }
	var qs []pair
	var want []float64
	for si := 0; si < stubs; si++ {
		s := &quiet.stubs[si*quiet.StubCount()/stubs]
		for k := 0; k < pairs; k++ {
			p := pair{s.first + NodeID(k%s.size), s.first + NodeID((3*k+1)%s.size)}
			qs = append(qs, p)
			want = append(want, quiet.Latency(p.a, p.b))
		}
	}
	for round := 0; round < 5; round++ {
		net := MustGenerate(spec, simrand.New(4))
		workers := 4 * runtime.GOMAXPROCS(0)
		start := make(chan struct{})
		errs := make(chan error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for k := range qs {
					q := qs[(k+w*pairs)%len(qs)] // workers reach the stubs in different orders
					if got := net.Latency(q.a, q.b); got != want[(k+w*pairs)%len(qs)] {
						errs <- fmt.Errorf("worker %d: Latency(%d,%d) = %v, want %v", w, q.a, q.b, got, want[(k+w*pairs)%len(qs)])
						return
					}
				}
			}(w)
		}
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		if n := denseStubs(net); n != stubs {
			t.Fatalf("%d dense matrices after querying %d stubs", n, stubs)
		}
	}
}
