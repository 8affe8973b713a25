package topology

import (
	"fmt"
	"runtime"
	"sync"

	"gsso/internal/simrand"
)

// Generate builds a transit-stub network from spec, deterministically from
// rng. The construction follows GT-ITM's model:
//
//  1. Each transit domain is a connected random graph of transit nodes.
//  2. Transit domains are interconnected by a random spanning tree plus
//     extra random cross-domain links.
//  3. Each transit node sponsors StubsPerTransitNode stub domains; each
//     stub is a connected random graph of hosts, single-homed to its
//     transit node through the stub's gateway host (the stub's first host).
//
// Node IDs are assigned densely: transit nodes first (domain by domain),
// then stub hosts (stub by stub, contiguous within a stub).
//
// Every random draw and every edge insertion happens on the calling
// goroutine in a fixed order; only the per-stub distance matrices, which
// consume no randomness, are filled by a stubSolver's workers. The result
// is the same bytes at any GOMAXPROCS.
func Generate(spec Spec, rng *simrand.Source) (*Network, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	transitCount := spec.TransitDomains * spec.TransitNodesPerDomain
	total := spec.TotalNodes()

	net := &Network{
		spec:         spec,
		graph:        NewGraph(total),
		nodes:        make([]Node, total),
		transitCount: transitCount,
	}
	latRNG := rng.Split("latency")
	wireRNG := rng.Split("wiring")

	// Transit nodes and intra-domain backbones.
	backbone := NewGraph(transitCount)
	domains := make([][]NodeID, spec.TransitDomains)
	next := NodeID(0)
	for d := 0; d < spec.TransitDomains; d++ {
		ids := make([]NodeID, spec.TransitNodesPerDomain)
		for i := range ids {
			ids[i] = next
			net.nodes[next] = Node{ID: next, Class: ClassTransit, Domain: d, Stub: -1}
			next++
		}
		domains[d] = ids
		if err := net.randomConnected(backbone, ids, spec.ExtraTransitEdgeProb,
			spec.Latency.IntraTransit, LinkIntraTransit, wireRNG, latRNG); err != nil {
			return nil, err
		}
	}

	// Inter-domain links: spanning tree over domains plus extras.
	if err := net.wireDomains(backbone, domains, wireRNG, latRNG); err != nil {
		return nil, err
	}

	// Backbone all-pairs distances. Independent Dijkstra runs can disagree
	// in the last ulp between d(a,b) and d(b,a); mirror the upper triangle
	// so the matrix is exactly symmetric.
	net.transitDist = make([]float64, transitCount*transitCount)
	var scratch DijkstraScratch
	for t := 0; t < transitCount; t++ {
		backbone.DijkstraInto(NodeID(t), net.transitDist[t*transitCount:(t+1)*transitCount], &scratch)
	}
	for t := 0; t < transitCount; t++ {
		for u := t + 1; u < transitCount; u++ {
			net.transitDist[u*transitCount+t] = net.transitDist[t*transitCount+u]
		}
	}

	// Stub domains. Oversized stubs (see Spec.HubStubThreshold) take the
	// factored hub-and-spoke path; preset-sized stubs keep the exact dense
	// path, bit-identical to the pre-threshold implementation.
	stubTotal := spec.TotalStubs()
	hub := spec.NodesPerStub > spec.hubThreshold()
	net.stubs = make([]stubDomain, 0, stubTotal)
	ids := make([]NodeID, spec.NodesPerStub)
	var solver *stubSolver
	if !hub {
		solver = newStubSolver(spec.NodesPerStub)
		defer solver.wait() // before the caller sees net, also on error returns
	}
	for t := 0; t < transitCount; t++ {
		for k := 0; k < spec.StubsPerTransitNode; k++ {
			stubIdx := len(net.stubs)
			first := next
			for i := range ids {
				ids[i] = next
				net.nodes[next] = Node{
					ID:     next,
					Class:  ClassStub,
					Domain: net.nodes[t].Domain,
					Stub:   stubIdx,
				}
				next++
			}
			sd := stubDomain{
				first:   first,
				size:    spec.NodesPerStub,
				gateway: NodeID(t),
			}
			if hub {
				// Hub-and-spoke: every host wired straight to the stub's
				// local hub (host 0), one intra-stub latency draw per
				// spoke. The factored egress array IS the distance
				// structure; no local Dijkstra, no dense matrix.
				sd.egress = make([]float64, spec.NodesPerStub)
				for i := 1; i < spec.NodesPerStub; i++ {
					w := spec.Latency.IntraStub.Draw(latRNG)
					if err := net.graph.AddEdge(ids[0], ids[i], w); err != nil {
						return nil, err
					}
					net.edgeCounts[LinkIntraStub]++
					sd.egress[i] = w
				}
			} else {
				local := solver.graph()
				if err := net.randomConnectedLocal(local, ids, first, spec.ExtraStubEdgeProb,
					spec.Latency.IntraStub, wireRNG, latRNG); err != nil {
					return nil, err
				}
				sd.dist = make([]float64, spec.NodesPerStub*spec.NodesPerStub)
				solver.solve(local, sd.dist)
			}
			// Gateway uplink: stub host 0 <-> sponsoring transit node.
			gwLat := spec.Latency.TransitStub.Draw(latRNG)
			if err := net.graph.AddEdge(ids[0], NodeID(t), gwLat); err != nil {
				return nil, err
			}
			net.edgeCounts[LinkTransitStub]++
			sd.gwLatency = gwLat
			net.stubs = append(net.stubs, sd)
		}
	}
	if int(next) != total {
		return nil, fmt.Errorf("topology: generated %d nodes, want %d", next, total)
	}
	return net, nil
}

// stubsInFlight bounds the stub-local graphs that exist at once, queued or
// being solved. The producer outruns the workers, and an unbounded queue
// would hold every stub's graph until the end (at 10^5 hosts the prototype
// measured 320 MB peak RSS unbounded, 239 MB with eight); eight keeps
// GOMAXPROCS workers fed.
const stubsInFlight = 8

// stubJob is one finished stub-local graph and the matrix its rows fill.
type stubJob struct {
	local *Graph
	dist  []float64
}

// stubSolver computes stub-local all-pairs matrices: on GOMAXPROCS workers,
// or inline on the caller when GOMAXPROCS is 1. Either way each row is one
// DijkstraInto over the same graph, so the matrices do not depend on which
// goroutine ran them. The local graphs are recycled through free.
type stubSolver struct {
	free    chan *Graph  // empty graphs ready for the producer
	jobs    chan stubJob // nil when solving inline
	wg      sync.WaitGroup
	scratch DijkstraScratch // the inline path's queue
}

func newStubSolver(nodesPerStub int) *stubSolver {
	s := &stubSolver{free: make(chan *Graph, stubsInFlight)}
	workers := runtime.GOMAXPROCS(0)
	if workers == 1 {
		s.free <- NewGraph(nodesPerStub)
		return s
	}
	for i := 0; i < stubsInFlight; i++ {
		s.free <- NewGraph(nodesPerStub)
	}
	// Sized to the graphs that exist, so solve never blocks.
	s.jobs = make(chan stubJob, stubsInFlight)
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer s.wg.Done()
			var scratch DijkstraScratch
			for j := range s.jobs {
				s.run(j, &scratch)
			}
		}()
	}
	return s
}

// graph returns an edgeless stub-local graph, waiting for a worker to
// finish with one if all are in flight.
func (s *stubSolver) graph() *Graph { return <-s.free }

// solve fills dist (n*n, row-major) with local's all-pairs distances and
// takes local back for reuse. dist must not be read before wait returns.
func (s *stubSolver) solve(local *Graph, dist []float64) {
	if s.jobs == nil {
		s.run(stubJob{local, dist}, &s.scratch)
		return
	}
	s.jobs <- stubJob{local, dist}
}

func (s *stubSolver) run(j stubJob, scratch *DijkstraScratch) {
	n := j.local.Len()
	for i := 0; i < n; i++ {
		j.local.DijkstraInto(NodeID(i), j.dist[i*n:(i+1)*n], scratch)
	}
	j.local.clearEdges()
	s.free <- j.local
}

// wait returns once every solved matrix is complete.
func (s *stubSolver) wait() {
	if s.jobs != nil {
		close(s.jobs)
		s.wg.Wait()
	}
}

// MustGenerate is Generate that panics on error; intended for tests and
// experiment setup where the spec is a vetted constant.
func MustGenerate(spec Spec, rng *simrand.Source) *Network {
	net, err := Generate(spec, rng)
	if err != nil {
		panic(err)
	}
	return net
}

// randomConnected wires ids (global IDs) into a connected random graph:
// a random attachment tree guarantees connectivity, then every remaining
// pair receives an edge with probability extraProb. Edges are mirrored
// into both the full graph and the backbone graph (same IDs).
//
// Duplicate suppression needs no per-pair map: the extra-edge double loop
// visits each unordered pair at most once, so the only possible duplicate
// is an extra edge re-proposing a tree edge — detected in O(1) against the
// flat parent index. A suppressed pair draws no latency, exactly like the
// map-based seed implementation.
func (n *Network) randomConnected(backbone *Graph, ids []NodeID, extraProb float64,
	dist Dist, class LinkClass, wireRNG, latRNG *simrand.Source) error {
	add := func(u, v NodeID) error {
		w := dist.Draw(latRNG)
		if err := n.graph.AddEdge(u, v, w); err != nil {
			return err
		}
		n.edgeCounts[class]++
		return backbone.AddEdge(u, v, w)
	}
	parent := make([]int32, len(ids)) // parent[i]: tree parent of ids[i], by index
	parent[0] = -1
	for i := 1; i < len(ids); i++ {
		p := wireRNG.Intn(i)
		parent[i] = int32(p)
		if err := add(ids[i], ids[p]); err != nil {
			return err
		}
	}
	if extraProb > 0 {
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				if wireRNG.Bool(extraProb) && int(parent[j]) != i {
					if err := add(ids[i], ids[j]); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// randomConnectedLocal is randomConnected for a stub domain: edges are
// mirrored into a stub-local graph indexed from 0 (id - first).
func (n *Network) randomConnectedLocal(local *Graph, ids []NodeID, first NodeID,
	extraProb float64, dist Dist, wireRNG, latRNG *simrand.Source) error {
	add := func(u, v NodeID) error {
		w := dist.Draw(latRNG)
		if err := n.graph.AddEdge(u, v, w); err != nil {
			return err
		}
		n.edgeCounts[LinkIntraStub]++
		return local.AddEdge(u-first, v-first, w)
	}
	parent := make([]int32, len(ids))
	parent[0] = -1
	for i := 1; i < len(ids); i++ {
		p := wireRNG.Intn(i)
		parent[i] = int32(p)
		if err := add(ids[i], ids[p]); err != nil {
			return err
		}
	}
	if extraProb > 0 {
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				if wireRNG.Bool(extraProb) && int(parent[j]) != i {
					if err := add(ids[i], ids[j]); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// wireDomains connects transit domains with a random spanning tree plus
// spec.ExtraInterDomainLinks extra random cross-domain links.
func (n *Network) wireDomains(backbone *Graph, domains [][]NodeID,
	wireRNG, latRNG *simrand.Source) error {
	if len(domains) <= 1 {
		return nil
	}
	present := make(map[[2]NodeID]bool)
	add := func(u, v NodeID) (bool, error) {
		if u > v {
			u, v = v, u
		}
		if present[[2]NodeID{u, v}] {
			return false, nil
		}
		present[[2]NodeID{u, v}] = true
		w := n.spec.Latency.CrossTransit.Draw(latRNG)
		if err := n.graph.AddEdge(u, v, w); err != nil {
			return false, err
		}
		n.edgeCounts[LinkCrossTransit]++
		return true, backbone.AddEdge(u, v, w)
	}
	pickNode := func(d int) NodeID {
		ids := domains[d]
		return ids[wireRNG.Intn(len(ids))]
	}
	for d := 1; d < len(domains); d++ {
		if _, err := add(pickNode(d), pickNode(wireRNG.Intn(d))); err != nil {
			return err
		}
	}
	// Extra cross-domain links; bounded retries tolerate duplicate picks.
	added := 0
	for attempt := 0; added < n.spec.ExtraInterDomainLinks && attempt < 20*n.spec.ExtraInterDomainLinks+20; attempt++ {
		d1 := wireRNG.Intn(len(domains))
		d2 := wireRNG.Intn(len(domains))
		if d1 == d2 {
			continue
		}
		fresh, err := add(pickNode(d1), pickNode(d2))
		if err != nil {
			return err
		}
		if fresh {
			added++
		}
	}
	return nil
}
