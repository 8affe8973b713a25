package topology

import (
	"slices"
	"testing"

	"gsso/internal/simrand"
)

// TestGenerateAllocsScaleWithStubs: Generate lays each stub's arcs into one
// block, so doubling a wide-scaled network's stubs adds about one
// allocation per stub, not the few per host that growing each adjacency
// list by append costs.
func TestGenerateAllocsScaleWithStubs(t *testing.T) {
	small := TSKLarge(GTITMLatency()).SizedWide(10_000)
	large := TSKLarge(GTITMLatency()).SizedWide(20_000)
	allocs := func(spec Spec) float64 {
		return testing.AllocsPerRun(2, func() { MustGenerate(spec, simrand.New(1)) })
	}
	extraStubs := large.TotalStubs() - small.TotalStubs()
	perStub := (allocs(large) - allocs(small)) / float64(extraStubs)
	if perStub > 2 {
		t.Fatalf("%d more stubs of %d hosts cost %.1f allocations each, want at most 2",
			extraStubs, small.NodesPerStub, perStub)
	}
}

// TestAddEdgeAfterGenerate: a generated stub host's arcs sit in its stub's
// block with capacity equal to its degree, so an edge added later moves
// the host's list out instead of writing over the next host's arcs.
func TestAddEdgeAfterGenerate(t *testing.T) {
	for _, spec := range []Spec{tinySpec(GTITMLatency()), hubSpec()} {
		net := MustGenerate(spec, simrand.New(3))
		g := net.Graph()
		for h := NodeID(net.TransitCount()); int(h) < g.Len(); h++ {
			if arcs := g.Neighbors(h); cap(arcs) != len(arcs) {
				t.Fatalf("stub host %d: %d arcs with capacity %d", h, len(arcs), cap(arcs))
			}
		}
		h := NodeID(net.TransitCount())
		before := slices.Clone(g.Neighbors(h))
		next := slices.Clone(g.Neighbors(h + 1))
		if err := g.AddEdge(h, 0, 1.5); err != nil {
			t.Fatal(err)
		}
		if got := g.Neighbors(h + 1); !slices.Equal(got, next) {
			t.Fatalf("AddEdge(%d, 0) changed host %d's arcs: %v, were %v", h, h+1, got, next)
		}
		if got, want := g.Neighbors(h), append(before, Arc{To: 0, W: 1.5}); !slices.Equal(got, want) {
			t.Fatalf("host %d arcs after AddEdge: %v, want %v", h, got, want)
		}
	}
}
