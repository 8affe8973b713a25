package topology

import (
	"fmt"
	"math"
	"sync/atomic"

	"gsso/internal/simrand"
)

// Class distinguishes backbone routers from edge hosts.
type Class uint8

// Node classes.
const (
	ClassTransit Class = iota
	ClassStub
)

// String implements fmt.Stringer.
func (c Class) String() string {
	if c == ClassTransit {
		return "transit"
	}
	return "stub"
}

// Node describes one host of the generated topology.
type Node struct {
	ID     NodeID
	Class  Class
	Domain int // transit domain index
	Stub   int // stub domain index, or -1 for transit nodes
}

// stubDomain holds the structure of one stub domain. Member IDs are
// contiguous, members[0] is the gateway host that owns the single
// transit-stub uplink.
//
// egress[i] = d(i → host 0) is the one structure Generate computes for every
// stub: each cross-stub latency needs nothing else of the stub. Intra-stub
// distances depend on how generation wired the network's stubs, by stub size
// against hubStubThreshold (Network.hubStubs):
//
//   - exact: the stub is a random local graph (the paper's presets). Its
//     dense size×size all-pairs matrix is filled by the first intra-stub
//     query that reaches the stub and memoised in dist — a world build
//     queries a few dozen of its thousands of stubs, and an untouched stub
//     costs O(size) memory, not O(size²);
//   - hub: the stub was wired hub-and-spoke around host 0, so
//     d(a,b) = egress[a] + egress[b] is the exact shortest path on the raw
//     graph and no matrix ever exists — which is what makes million-node
//     topologies with deep stubs fit in RAM.
//
// Both paths are O(1) per latency query once a stub's matrix exists.
type stubDomain struct {
	first     NodeID    // ID of members[0]
	size      int       // number of hosts
	gateway   NodeID    // transit node the stub attaches to
	gwLatency float64   // latency of the transit-stub link
	egress    []float64 // egress[i] = d(i → host 0); egress[0] == 0
	// dist is the exact mode's size×size matrix, row-major; nil until the
	// first intra-stub query. See Network.stubMatrix.
	dist atomic.Pointer[[]float64]
}

// stubMatrix returns s's dense all-pairs matrix, filling it on first use:
// row i is one Dijkstra from host i over the stub's node range of the full
// graph. Concurrent first callers each compute a copy and one CAS wins; the
// copies are bit-identical (same graph, same runs), so it does not matter
// which, and readers never wait on a lock.
func (n *Network) stubMatrix(s *stubDomain) []float64 {
	if m := s.dist.Load(); m != nil {
		return *m
	}
	m := make([]float64, s.size*s.size)
	var scratch DijkstraScratch
	for i := 0; i < s.size; i++ {
		n.graph.dijkstraRange(s.first+NodeID(i), s.first, m[i*s.size:(i+1)*s.size], &scratch)
	}
	if !s.dist.CompareAndSwap(nil, &m) {
		return *s.dist.Load()
	}
	return m
}

// intraStub returns the latency between two distinct positions of stub s.
func (n *Network) intraStub(s *stubDomain, pa, pb int) float64 {
	if n.hubStubs {
		// (egress[pa] + egress[pb]) is commutative, so the hub path stays
		// exactly symmetric in its arguments.
		return s.egress[pa] + s.egress[pb]
	}
	return n.stubMatrix(s)[pa*s.size+pb]
}

// Network is a generated transit-stub topology with O(1) shortest-path
// latency queries. Its observable state is fixed at generation; the only
// thing that changes afterwards is that exact stubs memoise their distance
// matrix on first use (see stubDomain), behind an atomic pointer, so a
// Network stays safe for concurrent readers.
type Network struct {
	spec         Spec
	graph        *Graph // full graph, kept for validation and inspection
	nodes        []Node
	transitCount int
	transitDist  []float64 // row-major transitCount x transitCount
	stubs        []stubDomain
	hubStubs     bool   // stubs are wired hub-and-spoke (see stubDomain)
	edgeCounts   [4]int // per LinkClass
}

// Spec returns the spec the network was generated from.
func (n *Network) Spec() Spec { return n.spec }

// Len returns the total number of hosts.
func (n *Network) Len() int { return len(n.nodes) }

// TransitCount returns the number of backbone routers.
func (n *Network) TransitCount() int { return n.transitCount }

// StubCount returns the number of stub domains.
func (n *Network) StubCount() int { return len(n.stubs) }

// Node returns the descriptor for id.
func (n *Network) Node(id NodeID) Node { return n.nodes[id] }

// StubGateway returns the transit node stub si attaches to and the latency
// of the stub's single uplink.
func (n *Network) StubGateway(si int) (NodeID, float64) {
	s := &n.stubs[si]
	return s.gateway, s.gwLatency
}

// Graph exposes the underlying raw graph (read-only) for validation and
// diagnostics.
func (n *Network) Graph() *Graph { return n.graph }

// EdgeCount returns the number of undirected links of the given class.
func (n *Network) EdgeCount(c LinkClass) int { return n.edgeCounts[c] }

// StubHosts returns the IDs of all stub hosts in increasing order. The
// returned slice is fresh and owned by the caller.
func (n *Network) StubHosts() []NodeID {
	out := make([]NodeID, 0, len(n.nodes)-n.transitCount)
	for id := NodeID(n.transitCount); int(id) < len(n.nodes); id++ {
		out = append(out, id)
	}
	return out
}

// AllHosts returns every node ID, transit and stub. The returned slice is
// fresh and owned by the caller.
func (n *Network) AllHosts() []NodeID {
	out := make([]NodeID, len(n.nodes))
	for i := range out {
		out[i] = NodeID(i)
	}
	return out
}

// RandomStubHosts returns k distinct stub hosts drawn uniformly.
func (n *Network) RandomStubHosts(rng *simrand.Source, k int) []NodeID {
	stubTotal := len(n.nodes) - n.transitCount
	idx := rng.Sample(stubTotal, k)
	out := make([]NodeID, k)
	for i, v := range idx {
		out[i] = NodeID(n.transitCount + v)
	}
	return out
}

// stubOf returns (stub index, position within stub) for a stub host.
func (n *Network) stubOf(id NodeID) (int, int) {
	off := int(id) - n.transitCount
	return off / n.spec.NodesPerStub, off % n.spec.NodesPerStub
}

// toTransit returns the compact index of the transit node nearest-attached
// to id and the latency of reaching it. For transit nodes the cost is 0.
func (n *Network) toTransit(id NodeID) (int, float64) {
	if n.nodes[id].Class == ClassTransit {
		return int(id), 0
	}
	si, pos := n.stubOf(id)
	s := &n.stubs[si]
	return int(s.gateway), s.egress[pos] + s.gwLatency
}

// Latency returns the shortest-path latency in milliseconds between hosts
// a and b. It exploits transit-stub structure: stubs never carry transit
// traffic and attach to the backbone through a single uplink, so every
// inter-stub path decomposes into stub egress + backbone path + stub
// ingress. Latency(a, a) == 0.
func (n *Network) Latency(a, b NodeID) float64 {
	if a == b {
		return 0
	}
	aStub := n.nodes[a].Class == ClassStub
	bStub := n.nodes[b].Class == ClassStub
	if aStub && bStub {
		sa, pa := n.stubOf(a)
		sb, pb := n.stubOf(b)
		if sa == sb {
			return n.intraStub(&n.stubs[sa], pa, pb)
		}
	}
	ta, ca := n.toTransit(a)
	tb, cb := n.toTransit(b)
	// (ca + cb) first: FP addition is commutative, so the result is exactly
	// symmetric in a and b.
	return (ca + cb) + n.transitDist[ta*n.transitCount+tb]
}

// RTT returns the round-trip time between hosts (twice the one-way
// latency; links are symmetric).
func (n *Network) RTT(a, b NodeID) float64 { return 2 * n.Latency(a, b) }

// RTTs sets dst[i] = RTT(a, targets[i]), bit for bit, for len(dst) ==
// len(targets). a's stub, uplink cost and backbone row are looked up once
// for the whole row rather than once per target.
func (n *Network) RTTs(a NodeID, targets []NodeID, dst []float64) {
	ta, ca := n.toTransit(a)
	row := n.transitDist[ta*n.transitCount : (ta+1)*n.transitCount]
	sa, pa := -1, 0
	if n.nodes[a].Class == ClassStub {
		sa, pa = n.stubOf(a)
	}
	for i, b := range targets {
		if b == a {
			dst[i] = 0
			continue
		}
		if sa >= 0 && n.nodes[b].Class == ClassStub {
			if sb, pb := n.stubOf(b); sb == sa {
				dst[i] = 2 * n.intraStub(&n.stubs[sa], pa, pb)
				continue
			}
		}
		tb, cb := n.toTransit(b)
		dst[i] = 2 * ((ca + cb) + row[tb])
	}
}

// Nearest returns the member of candidates closest to a (excluding a
// itself) and the latency to it. It returns (None, +Inf) if candidates
// contains no node other than a.
func (n *Network) Nearest(a NodeID, candidates []NodeID) (NodeID, float64) {
	best := None
	bestD := math.Inf(1)
	for _, c := range candidates {
		if c == a {
			continue
		}
		if d := n.Latency(a, c); d < bestD {
			best, bestD = c, d
		}
	}
	return best, bestD
}

// SameStub reports whether a and b are stub hosts of the same stub domain.
func (n *Network) SameStub(a, b NodeID) bool {
	if n.nodes[a].Class != ClassStub || n.nodes[b].Class != ClassStub {
		return false
	}
	sa, _ := n.stubOf(a)
	sb, _ := n.stubOf(b)
	return sa == sb
}

// String summarizes the network for logs.
func (n *Network) String() string {
	return fmt.Sprintf("transit-stub{hosts=%d transit=%d stubs=%d edges=%d latency=%s}",
		len(n.nodes), n.transitCount, len(n.stubs), n.graph.EdgeCount(), n.spec.Latency.Name)
}
