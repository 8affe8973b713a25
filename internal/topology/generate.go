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
// goroutine in a fixed order; only the per-stub egress columns, which
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

	// Transit nodes and intra-domain backbones, which the backbone graph
	// mirrors.
	backbone := NewGraph(transitCount)
	domains := make([][]NodeID, spec.TransitDomains)
	var wiring []edge // one domain's or one stub's edges, in draw order
	next := NodeID(0)
	for d := 0; d < spec.TransitDomains; d++ {
		ids := make([]NodeID, spec.TransitNodesPerDomain)
		for i := range ids {
			ids[i] = next
			net.nodes[next] = Node{ID: next, Class: ClassTransit, Domain: d, Stub: -1}
			next++
		}
		domains[d] = ids
		wiring = randomConnected(wiring[:0], ids, spec.ExtraTransitEdgeProb,
			spec.Latency.IntraTransit, wireRNG, latRNG)
		for _, e := range wiring {
			if err := net.graph.AddEdge(e.u, e.v, e.w); err != nil {
				return nil, err
			}
			if err := backbone.AddEdge(e.u, e.v, e.w); err != nil {
				return nil, err
			}
		}
		net.edgeCounts[LinkIntraTransit] += len(wiring)
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

	// Stub domains. Oversized stubs (see hubStubThreshold) are wired
	// hub-and-spoke, which makes the egress array the whole distance
	// structure; preset-sized stubs are random local graphs whose egress
	// column a stubSolver computes (see stubDomain). A stub's edges,
	// uplink last, are drawn into wiring and laid into the graph as one
	// arc block (Graph.addBlock): one allocation per stub, not a growing
	// list per host.
	hub := spec.NodesPerStub > hubStubThreshold
	net.hubStubs = hub
	net.stubs = make([]stubDomain, spec.TotalStubs())
	egress := make([]float64, len(net.stubs)*spec.NodesPerStub) // one backing array
	ids := make([]NodeID, spec.NodesPerStub)
	deg := make([]int, spec.NodesPerStub)
	var solver *stubSolver
	if !hub {
		solver = newStubSolver(net.graph)
		defer solver.wait() // before the caller sees net, also on error returns
	}
	stubIdx := 0
	for t := 0; t < transitCount; t++ {
		for k := 0; k < spec.StubsPerTransitNode; k++ {
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
			sd := &net.stubs[stubIdx]
			sd.first, sd.size, sd.gateway = first, spec.NodesPerStub, NodeID(t)
			sd.egress = egress[stubIdx*sd.size : (stubIdx+1)*sd.size : (stubIdx+1)*sd.size]
			stubIdx++
			wiring = wiring[:0]
			if hub {
				// Every host wired straight to the stub's local hub (host
				// 0), one intra-stub latency draw per spoke, which is also
				// the spoke's egress distance: no Dijkstra at all.
				for i := 1; i < spec.NodesPerStub; i++ {
					w := spec.Latency.IntraStub.Draw(latRNG)
					wiring = append(wiring, edge{ids[0], ids[i], w})
					sd.egress[i] = w
				}
			} else {
				wiring = randomConnected(wiring, ids, spec.ExtraStubEdgeProb,
					spec.Latency.IntraStub, wireRNG, latRNG)
			}
			net.edgeCounts[LinkIntraStub] += len(wiring)
			// Gateway uplink: stub host 0 <-> sponsoring transit node. It goes
			// in before the solver sees the stub, so no worker ever reads an
			// adjacency list this goroutine still appends to.
			gwLat := spec.Latency.TransitStub.Draw(latRNG)
			wiring = append(wiring, edge{ids[0], NodeID(t), gwLat})
			if err := net.graph.addBlock(first, deg, wiring); err != nil {
				return nil, err
			}
			net.edgeCounts[LinkTransitStub]++
			sd.gwLatency = gwLat
			if !hub {
				solver.solve(sd)
			}
		}
	}
	if int(next) != total {
		return nil, fmt.Errorf("topology: generated %d nodes, want %d", next, total)
	}
	return net, nil
}

// stubSolver fills the egress columns of fully wired exact stubs: on
// GOMAXPROCS workers, or inline on the caller when GOMAXPROCS is 1. Either
// way egress[i] is the label a Dijkstra run from host i over the stub's node
// range of the full graph gives host 0, so the values do not depend on which
// goroutine ran them. One run out of host 0 cannot stand in for the column:
// d(0,i) and d(i,0) sum the same path's weights from opposite ends and differ
// in the last ulp now and then, and the goldens pin d(i,0). It can steer the
// runs that do count, though — see dijkstraToward.
//
// Workers read only the adjacency lists of the stub they were handed, which
// the producer finished before the hand-off; the lists it appends to
// meanwhile belong to later stubs and to transit nodes.
type stubSolver struct {
	g       *Graph
	jobs    chan *stubDomain // nil when solving inline
	wg      sync.WaitGroup
	scratch stubScratch // the inline path's
}

// stubScratch is what solving one stub needs besides the graph.
type stubScratch struct {
	from []float64 // the run out of host 0 that steers the others
	dist []float64 // labels of the run in progress
	pq   DijkstraScratch
}

func newStubSolver(g *Graph) *stubSolver {
	s := &stubSolver{g: g}
	workers := runtime.GOMAXPROCS(0)
	if workers == 1 {
		return s
	}
	// Room for a few stubs per worker, so the producer blocks only when
	// the workers are behind; what queues is a pointer.
	s.jobs = make(chan *stubDomain, 8*workers)
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer s.wg.Done()
			var scratch stubScratch
			for sd := range s.jobs {
				s.run(sd, &scratch)
			}
		}()
	}
	return s
}

// solve fills sd.egress. sd's edges, uplink included, must all be in the
// graph; egress must not be read before wait returns.
func (s *stubSolver) solve(sd *stubDomain) {
	if s.jobs == nil {
		s.run(sd, &s.scratch)
		return
	}
	s.jobs <- sd
}

func (s *stubSolver) run(sd *stubDomain, scratch *stubScratch) {
	if len(scratch.dist) != sd.size {
		scratch.dist = make([]float64, sd.size)
		scratch.from = make([]float64, sd.size)
	}
	s.g.dijkstraRange(sd.first, sd.first, scratch.from, &scratch.pq)
	for i := 1; i < sd.size; i++ {
		sd.egress[i] = s.g.dijkstraToward(sd.first+NodeID(i), sd.first, sd.first, scratch.from, scratch.dist, &scratch.pq)
	}
}

// wait returns once every egress column is complete.
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

// randomConnected appends to out the edges that wire ids (global IDs) into
// a connected random graph, in draw order: a random attachment tree
// guarantees connectivity, then every remaining pair receives an edge with
// probability extraProb.
//
// Duplicate suppression needs no per-pair map: the extra-edge double loop
// visits each unordered pair at most once, so the only possible duplicate
// is an extra edge re-proposing a tree edge — detected in O(1) against the
// tree edge of ids[j], which is out[tree+j-1] = {ids[j], ids[parent]}. A
// suppressed pair draws no latency, exactly like the map-based seed
// implementation.
func randomConnected(out []edge, ids []NodeID, extraProb float64,
	dist Dist, wireRNG, latRNG *simrand.Source) []edge {
	tree := len(out)
	for i := 1; i < len(ids); i++ {
		p := wireRNG.Intn(i)
		out = append(out, edge{ids[i], ids[p], dist.Draw(latRNG)})
	}
	if extraProb > 0 {
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				if wireRNG.Bool(extraProb) && out[tree+j-1].v != ids[i] {
					out = append(out, edge{ids[i], ids[j], dist.Draw(latRNG)})
				}
			}
		}
	}
	return out
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
