// Package landmark implements landmark-based network positioning: landmark
// selection, landmark vectors (a node's RTTs to the landmark set),
// landmark orderings (the Topologically-Aware CAN baseline), and the
// reduction of landmark vectors to scalar landmark numbers via a Hilbert
// space-filling curve (the paper's appendix).
//
// A landmark number approximates a node's position in the physical network
// with a single integer: nodes with nearby numbers are likely physically
// close. The number doubles as a DHT key, which is what lets the overlay
// store proximity information about physically close nodes at logically
// close locations.
package landmark

import (
	"fmt"
	"math"
	"sort"

	"gsso/internal/hilbert"
	"gsso/internal/netsim"
	"gsso/internal/simrand"
	"gsso/internal/topology"
)

// Set is a fixed collection of landmark hosts. Landmarks can be overlay
// members or standalone infrastructure; the paper picks them uniformly at
// random from the topology.
type Set struct {
	nodes []topology.NodeID
}

// Choose picks k distinct landmark hosts uniformly at random from the
// network's stub hosts.
func Choose(net *topology.Network, k int, rng *simrand.Source) (Set, error) {
	stubTotal := net.Len() - net.TransitCount()
	if k < 1 || k > stubTotal {
		return Set{}, fmt.Errorf("landmark: k = %d, need in [1, %d]", k, stubTotal)
	}
	return Set{nodes: net.RandomStubHosts(rng, k)}, nil
}

// ChoosePerDomain picks perDomain landmarks from the stub hosts of every
// transit domain — "localized landmarks" in the sense of §5.4's
// hierarchical optimization: each domain contributes nearby vantage
// points that can differentiate hosts a global landmark set sees as one
// blob.
func ChoosePerDomain(net *topology.Network, perDomain int, rng *simrand.Source) (Set, error) {
	if perDomain < 1 {
		return Set{}, fmt.Errorf("landmark: perDomain = %d, need >= 1", perDomain)
	}
	byDomain := make(map[int][]topology.NodeID)
	for _, h := range net.StubHosts() {
		d := net.Node(h).Domain
		byDomain[d] = append(byDomain[d], h)
	}
	domains := make([]int, 0, len(byDomain))
	for d := range byDomain {
		domains = append(domains, d)
	}
	sort.Ints(domains)
	var out []topology.NodeID
	for _, d := range domains {
		hosts := byDomain[d]
		if perDomain > len(hosts) {
			return Set{}, fmt.Errorf("landmark: domain %d has %d stub hosts, need %d", d, len(hosts), perDomain)
		}
		for _, i := range rng.Sample(len(hosts), perDomain) {
			out = append(out, hosts[i])
		}
	}
	return Set{nodes: out}, nil
}

// NewSet builds a Set from explicit hosts (for tests and the wire daemon).
func NewSet(hosts []topology.NodeID) Set {
	return Set{nodes: append([]topology.NodeID(nil), hosts...)}
}

// Len returns the number of landmarks.
func (s Set) Len() int { return len(s.nodes) }

// Nodes returns a copy of the landmark host IDs.
func (s Set) Nodes() []topology.NodeID {
	return append([]topology.NodeID(nil), s.nodes...)
}

// Vector is a node's landmark vector: RTTs (ms) to each landmark, in Set
// order. It positions the node in the n-dimensional landmark space.
type Vector []float64

// Measure produces host's landmark vector by probing every landmark
// through env (each probe is metered). This is the cost every node pays
// once at join time.
func Measure(env *netsim.Env, host topology.NodeID, set Set) Vector {
	return MeasureInto(env, host, set, make(Vector, len(set.nodes)))
}

// MeasureInto is Measure into caller-provided storage: dst must have
// length set.Len() and is returned filled. Callers measuring many hosts
// carve their vectors from one backing array instead of allocating each.
func MeasureInto(env *netsim.Env, host topology.NodeID, set Set, dst Vector) Vector {
	if len(dst) != len(set.nodes) {
		panic(fmt.Sprintf("landmark: MeasureInto dst has %d dims, set has %d", len(dst), len(set.nodes)))
	}
	env.ProbeRTTs(host, set.nodes, dst)
	return dst
}

// Distance returns the Euclidean distance between two landmark vectors.
// It panics on dimension mismatch: vectors from different landmark sets
// are incomparable and mixing them is a programming error.
func Distance(a, b Vector) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("landmark: comparing vectors of dims %d and %d", len(a), len(b)))
	}
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// Ordering returns the landmark indices sorted by increasing RTT — the
// "landmark ordering" clustering key of Topologically-Aware CAN
// (Ratnasamy et al.). Ties break by landmark index for determinism.
func (v Vector) Ordering() []int {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if v[idx[a]] != v[idx[b]] {
			return v[idx[a]] < v[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx
}

// SameOrdering reports whether two vectors induce identical landmark
// orderings (the baseline's notion of "same cluster").
func SameOrdering(a, b Vector) bool {
	if len(a) != len(b) {
		return false
	}
	oa, ob := a.Ordering(), b.Ordering()
	for i := range oa {
		if oa[i] != ob[i] {
			return false
		}
	}
	return true
}

// Space reduces landmark vectors to scalar landmark numbers. Following the
// appendix, only IndexDims components of the vector (the "landmark vector
// index") feed the space-filling curve; the full vector is still used for
// fine-grained sorting at lookup time.
type Space struct {
	set       Set
	curve     hilbert.Curve
	indexDims int
	maxRTT    float64
}

// NewSpace builds a Space over set.
//
// indexDims is the number of leading vector components used for the curve
// (clamped to the set size), bitsPerDim the per-axis grid resolution
// (indexDims*bitsPerDim <= 64), and maxRTT the RTT that maps to the far
// edge of the grid (larger RTTs clamp).
func NewSpace(set Set, indexDims, bitsPerDim int, maxRTT float64) (*Space, error) {
	if set.Len() == 0 {
		return nil, fmt.Errorf("landmark: empty landmark set")
	}
	if indexDims < 1 {
		return nil, fmt.Errorf("landmark: indexDims = %d, need >= 1", indexDims)
	}
	if indexDims > set.Len() {
		indexDims = set.Len()
	}
	if maxRTT <= 0 {
		return nil, fmt.Errorf("landmark: maxRTT = %v, need > 0", maxRTT)
	}
	curve, err := hilbert.New(indexDims, bitsPerDim)
	if err != nil {
		return nil, err
	}
	return &Space{set: set, curve: curve, indexDims: indexDims, maxRTT: maxRTT}, nil
}

// Set returns the landmark set the space is defined over.
func (sp *Space) Set() Set { return sp.set }

// Curve returns the underlying Hilbert curve.
func (sp *Space) Curve() hilbert.Curve { return sp.curve }

// IndexDims returns the number of vector components used by the curve.
func (sp *Space) IndexDims() int { return sp.indexDims }

// MaxRTT returns the quantization scale.
func (sp *Space) MaxRTT() float64 { return sp.maxRTT }

// MaxNumber returns the largest landmark number the space can produce.
func (sp *Space) MaxNumber() uint64 { return sp.curve.MaxIndex() }

// Number reduces a landmark vector to its scalar landmark number.
// Closeness of numbers approximates physical closeness (with the usual
// space-filling-curve caveats, which is exactly why lookups re-sort by
// full vector afterwards). It does not allocate (see CurveNumber).
func (sp *Space) Number(v Vector) (uint64, error) {
	if len(v) != sp.set.Len() {
		return 0, fmt.Errorf("landmark: vector dims %d, want %d", len(v), sp.set.Len())
	}
	return CurveNumber(sp.curve, v, sp.maxRTT)
}

// NumberToUnitPoint maps a landmark number to the center of its curve cell
// in the unit cube of the index dimensions. Soft-state placement composes
// this with a projection into the hosting region.
func (sp *Space) NumberToUnitPoint(num uint64) ([]float64, error) {
	return sp.curve.IndexToUnitPoint(num)
}

// Calibrate picks k landmarks with the pick stream, estimates the
// quantization scale from 32 stub hosts drawn with the est stream, and
// returns the space over them: 3 index dimensions at 6 bits each, the
// setting every simulated deployment uses.
func Calibrate(net *topology.Network, k int, pick, est *simrand.Source) (*Space, error) {
	set, err := Choose(net, k, pick)
	if err != nil {
		return nil, err
	}
	return NewSpace(set, 3, 6, EstimateMaxRTT(net, set, net.RandomStubHosts(est, 32)))
}

// EstimateMaxRTT returns a quantization scale for a Space by sampling RTTs
// from sample hosts to the landmark set through the unmetered oracle: the
// maximum observed RTT padded by 25%. Using the oracle is legitimate here
// because the scale is an engineering constant of the deployment, not
// per-node state.
func EstimateMaxRTT(net *topology.Network, set Set, sample []topology.NodeID) float64 {
	maxRTT := 0.0
	for _, h := range sample {
		for _, lm := range set.nodes {
			if rtt := net.RTT(h, lm); rtt > maxRTT {
				maxRTT = rtt
			}
		}
	}
	if maxRTT == 0 {
		maxRTT = 1
	}
	return maxRTT * 1.25
}
