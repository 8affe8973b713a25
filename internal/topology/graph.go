// Package topology generates GT-ITM-style transit-stub network topologies
// and answers shortest-path latency queries over them.
//
// The package plays the role of the physical Internet in the paper's
// evaluation: overlay nodes are attached to topology hosts, and every RTT
// probe or routing-hop cost resolves to a shortest-path latency between two
// hosts. Transit-stub structure (stub domains hang off transit-domain
// backbones and never carry transit traffic) is exploited to answer latency
// queries in O(1) after a cheap precomputation; a generic Dijkstra over the
// raw graph is kept alongside for validation.
package topology

import (
	"fmt"
	"math"
)

// NodeID identifies a host in the physical topology. IDs are dense,
// starting at 0, in generation order.
type NodeID int32

// None is the sentinel for "no node".
const None NodeID = -1

// Arc is one directed half of an undirected weighted edge.
type Arc struct {
	To NodeID
	W  float64 // latency in milliseconds
}

// Graph is an undirected weighted graph with dense NodeIDs. The zero value
// is an empty graph; use NewGraph to preallocate adjacency lists.
type Graph struct {
	adj [][]Arc
}

// NewGraph returns a graph with n nodes and no edges.
func NewGraph(n int) *Graph {
	return &Graph{adj: make([][]Arc, n)}
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.adj) }

// AddEdge inserts an undirected edge {u, v} with weight w. It returns an
// error on out-of-range endpoints, self-loops, or non-positive weights.
func (g *Graph) AddEdge(u, v NodeID, w float64) error {
	if err := g.checkEdge(edge{u, v, w}); err != nil {
		return err
	}
	g.adj[u] = append(g.adj[u], Arc{To: v, W: w})
	g.adj[v] = append(g.adj[v], Arc{To: u, W: w})
	return nil
}

// edge is one undirected edge as the generator draws it.
type edge struct {
	u, v NodeID
	w    float64
}

// checkEdge is AddEdge's validation.
func (g *Graph) checkEdge(e edge) error {
	if e.u == e.v {
		return fmt.Errorf("topology: self-loop on node %d", e.u)
	}
	if int(e.u) < 0 || int(e.u) >= len(g.adj) || int(e.v) < 0 || int(e.v) >= len(g.adj) {
		return fmt.Errorf("topology: edge (%d,%d) out of range [0,%d)", e.u, e.v, len(g.adj))
	}
	if e.w <= 0 || math.IsNaN(e.w) || math.IsInf(e.w, 0) {
		return fmt.Errorf("topology: edge (%d,%d) has invalid weight %v", e.u, e.v, e.w)
	}
	return nil
}

// addBlock inserts edges in order, as AddEdge would one by one, except that
// the arcs of nodes [first, first+len(deg)) are laid out in one new block:
// each such node's list gets capacity equal to its final degree, so a later
// AddEdge copies it out instead of writing over the next node's arcs. Arcs
// to nodes outside the range are appended as AddEdge appends them. deg is
// scratch.
func (g *Graph) addBlock(first NodeID, deg []int, edges []edge) error {
	total := 0
	for i := range deg {
		deg[i] = len(g.adj[first+NodeID(i)])
		total += deg[i]
	}
	for _, e := range edges {
		if err := g.checkEdge(e); err != nil {
			return err
		}
		for _, x := range [2]NodeID{e.u, e.v} {
			if i := int(x - first); uint(i) < uint(len(deg)) {
				deg[i]++
				total++
			}
		}
	}
	block := make([]Arc, total)
	off := 0
	for i, d := range deg {
		h := first + NodeID(i)
		n := copy(block[off:], g.adj[h])
		g.adj[h] = block[off : off+n : off+d]
		off += d
	}
	for _, e := range edges {
		g.adj[e.u] = append(g.adj[e.u], Arc{To: e.v, W: e.w})
		g.adj[e.v] = append(g.adj[e.v], Arc{To: e.u, W: e.w})
	}
	return nil
}

// Neighbors returns the adjacency list of u. The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) Neighbors(u NodeID) []Arc { return g.adj[u] }

// Degree returns the number of edges incident to u.
func (g *Graph) Degree(u NodeID) int { return len(g.adj[u]) }

// EdgeCount returns the number of undirected edges.
func (g *Graph) EdgeCount() int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total / 2
}

// Dijkstra computes single-source shortest-path distances from src to every
// node. Unreachable nodes get +Inf.
func (g *Graph) Dijkstra(src NodeID) []float64 {
	dist := make([]float64, len(g.adj))
	var scratch DijkstraScratch
	g.DijkstraInto(src, dist, &scratch)
	return dist
}

// DijkstraScratch holds the priority-queue storage a Dijkstra run needs, so
// callers computing many single-source trees over the same graph (the
// generator runs one out of every backbone node and every stub host) can
// reuse one allocation instead of regrowing the heap per source. The
// zero value is ready to use. Not safe for concurrent use.
type DijkstraScratch struct {
	pq arcHeap
}

// DijkstraInto computes distances from src into dist, which must have
// length g.Len(); every entry is overwritten (unreachable nodes get +Inf).
// scratch may be nil, in which case the queue is allocated fresh.
func (g *Graph) DijkstraInto(src NodeID, dist []float64, scratch *DijkstraScratch) {
	if len(dist) != len(g.adj) {
		panic(fmt.Sprintf("topology: DijkstraInto dist length %d != node count %d", len(dist), len(g.adj)))
	}
	if scratch == nil {
		scratch = new(DijkstraScratch)
	}
	g.dijkstraRange(src, 0, dist, scratch)
}

// dijkstraRange is Dijkstra over the subgraph induced by the contiguous
// nodes [first, first+len(dist)): dist is indexed by id-first and arcs
// leaving the range are skipped, so the distances are what DijkstraInto
// computes on a standalone copy of the induced subgraph whose adjacency
// lists hold the same arcs in the same order.
func (g *Graph) dijkstraRange(src, first NodeID, dist []float64, scratch *DijkstraScratch) {
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src-first] = 0
	// The queue is a hand-rolled binary heap (pushArc/popArc): container/heap's
	// Push takes interface{}, which heap-allocates a box per relaxation —
	// the dominant allocation in the generator's sweeps.
	pq := &scratch.pq
	*pq = append((*pq)[:0], Arc{To: src, W: 0})
	for len(*pq) > 0 {
		cur := pq.popArc()
		if cur.W > dist[cur.To-first] {
			continue // stale queue entry
		}
		for _, e := range g.adj[cur.To] {
			to := int(e.To - first)
			if uint(to) >= uint(len(dist)) {
				continue // leaves the range
			}
			if nd := cur.W + e.W; nd < dist[to] {
				dist[to] = nd
				pq.pushArc(Arc{To: e.To, W: nd})
			}
		}
	}
}

// towardSlack is how far above the known distance dijkstraToward lets a
// partial path's estimate run before cutting it. Rounding moves a sum of n
// positive weights by a relative n*2^-53 at most, about 3e-14 for the largest
// exact stub, and every quantity compared is such a sum: 1e-9 is safely
// above the noise and still admits nothing but shortest paths and their ties.
const towardSlack = 1 + 1e-9

// dijkstraToward returns what dijkstraRange from src leaves in
// dist[target-first], exact to the bit, for a fraction of the work. from
// must hold a dijkstraRange run out of target over the same range (within
// rounding, every node's distance to target); dist is scratch.
//
// A Dijkstra label is the minimum, over all paths from src, of the path's
// weights summed in path order: a settled label is final whatever order the
// queue settles nodes in (weights are positive and rounding is monotone), so
// the run may stop once target is settled, and may skip a relaxation without
// changing target's label unless a minimising path runs through it. Every
// prefix of a minimising path has label + from[node] within rounding of
// from[src]; a relaxation that lands more than towardSlack above is on no
// such path. What remains is the shortest paths from src to target.
func (g *Graph) dijkstraToward(src, target, first NodeID, from, dist []float64, scratch *DijkstraScratch) float64 {
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src-first] = 0
	cut := from[src-first] * towardSlack
	pq := &scratch.pq
	*pq = append((*pq)[:0], Arc{To: src, W: 0})
	for len(*pq) > 0 {
		cur := pq.popArc()
		if cur.W > dist[cur.To-first] {
			continue // stale queue entry
		}
		if cur.To == target {
			break
		}
		for _, e := range g.adj[cur.To] {
			to := int(e.To - first)
			if uint(to) >= uint(len(dist)) {
				continue // leaves the range
			}
			if nd := cur.W + e.W; nd < dist[to] && nd+from[to] <= cut {
				dist[to] = nd
				pq.pushArc(Arc{To: e.To, W: nd})
			}
		}
	}
	return dist[target-first]
}

// Connected reports whether the graph is a single connected component.
// The empty graph is considered connected.
func (g *Graph) Connected() bool {
	if len(g.adj) == 0 {
		return true
	}
	seen := make([]bool, len(g.adj))
	stack := []NodeID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[u] {
			if !seen[e.To] {
				seen[e.To] = true
				count++
				stack = append(stack, e.To)
			}
		}
	}
	return count == len(g.adj)
}

// arcHeap is a min-heap of Arcs ordered by W, used as the Dijkstra queue
// (To doubles as the node, W as the tentative distance).
type arcHeap []Arc

// pushArc and popArc are the binary-heap sift operations container/heap
// performs, minus the interface{} boxing of each Arc.

func (h *arcHeap) pushArc(a Arc) {
	s := append(*h, a)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent].W <= s[i].W {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
	*h = s
}

func (h *arcHeap) popArc() Arc {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && s[r].W < s[l].W {
			m = r
		}
		if s[i].W <= s[m].W {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return top
}
