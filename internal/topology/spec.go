package topology

import (
	"fmt"

	"gsso/internal/simrand"
)

// LinkClass distinguishes the four kinds of links in a transit-stub
// topology; each class draws its latency from its own distribution.
type LinkClass uint8

// Link classes, in decreasing typical latency order.
const (
	LinkCrossTransit LinkClass = iota // transit node <-> transit node, different domains
	LinkIntraTransit                  // transit node <-> transit node, same domain
	LinkTransitStub                   // transit node <-> stub gateway
	LinkIntraStub                     // stub node <-> stub node, same stub domain
)

// String implements fmt.Stringer.
func (c LinkClass) String() string {
	switch c {
	case LinkCrossTransit:
		return "cross-transit"
	case LinkIntraTransit:
		return "intra-transit"
	case LinkTransitStub:
		return "transit-stub"
	case LinkIntraStub:
		return "intra-stub"
	default:
		return fmt.Sprintf("LinkClass(%d)", uint8(c))
	}
}

// Dist is a uniform latency distribution over [Lo, Hi) milliseconds.
// Lo == Hi yields the constant Lo.
type Dist struct {
	Lo, Hi float64
}

// Draw samples the distribution.
func (d Dist) Draw(rng *simrand.Source) float64 {
	if d.Hi <= d.Lo {
		return d.Lo
	}
	return rng.Range(d.Lo, d.Hi)
}

// Const returns a constant distribution.
func Const(v float64) Dist { return Dist{Lo: v, Hi: v} }

// LatencyModel assigns per-class link latencies.
type LatencyModel struct {
	Name         string
	CrossTransit Dist
	IntraTransit Dist
	TransitStub  Dist
	IntraStub    Dist
}

// GTITMLatency mimics GT-ITM's randomly weighted links: each class draws
// uniformly from a range whose scale reflects geographic extent (backbone
// links span continents, stub links span campuses). The exact ranges are
// paper-reconstructed (the supplied text lost its digits); only the
// ordering cross-transit >> intra-transit > intra-stub > transit-stub
// matters for result shapes.
func GTITMLatency() LatencyModel {
	return LatencyModel{
		Name:         "gtitm",
		CrossTransit: Dist{Lo: 10, Hi: 50},
		IntraTransit: Dist{Lo: 2, Hi: 20},
		TransitStub:  Dist{Lo: 0.5, Hi: 4},
		IntraStub:    Dist{Lo: 0.5, Hi: 4},
	}
}

// ManualLatency is the paper's second setting, with fixed per-class
// latencies: 20 ms cross-transit, 5 ms intra-transit, 0.5 ms transit-stub,
// 1 ms intra-stub (values paper-reconstructed; see DESIGN.md §3).
func ManualLatency() LatencyModel {
	return LatencyModel{
		Name:         "manual",
		CrossTransit: Const(20),
		IntraTransit: Const(5),
		TransitStub:  Const(0.5),
		IntraStub:    Const(1),
	}
}

// Spec describes a transit-stub topology to generate.
type Spec struct {
	// TransitDomains is the number of transit (backbone) domains.
	TransitDomains int
	// TransitNodesPerDomain is the number of transit nodes per domain.
	TransitNodesPerDomain int
	// StubsPerTransitNode is the number of stub domains attached to each
	// transit node.
	StubsPerTransitNode int
	// NodesPerStub is the number of hosts in each stub domain.
	NodesPerStub int
	// ExtraTransitEdgeProb is the probability of each possible extra
	// intra-transit-domain edge beyond the connectivity spanning tree.
	ExtraTransitEdgeProb float64
	// ExtraStubEdgeProb is the same for intra-stub edges.
	ExtraStubEdgeProb float64
	// ExtraInterDomainLinks is the number of extra random cross-domain
	// backbone links added beyond the inter-domain spanning tree.
	ExtraInterDomainLinks int
	// Latency assigns link latencies.
	Latency LatencyModel
}

// hubStubThreshold bounds the per-stub all-pairs distance matrix: stubs
// with more than this many hosts are generated hub-and-spoke (every host
// wired straight to the stub's gateway host), so their intra-stub
// distances factor into one egress latency per host — O(size) memory
// instead of the O(size²) matrix, and a Generate 20–55x cheaper than the
// exact wiring at 400-host stubs (DESIGN.md §5c). Stubs at or under it
// keep the exact random-graph wiring of the paper's presets (tsk-large:
// 40 hosts/stub, tsk-small: 160).
const hubStubThreshold = 256

// Validate reports whether the spec is generateable.
func (s Spec) Validate() error {
	switch {
	case s.TransitDomains < 1:
		return fmt.Errorf("topology: TransitDomains = %d, need >= 1", s.TransitDomains)
	case s.TransitNodesPerDomain < 1:
		return fmt.Errorf("topology: TransitNodesPerDomain = %d, need >= 1", s.TransitNodesPerDomain)
	case s.StubsPerTransitNode < 0:
		return fmt.Errorf("topology: StubsPerTransitNode = %d, need >= 0", s.StubsPerTransitNode)
	case s.NodesPerStub < 1 && s.StubsPerTransitNode > 0:
		return fmt.Errorf("topology: NodesPerStub = %d, need >= 1", s.NodesPerStub)
	case s.ExtraTransitEdgeProb < 0 || s.ExtraTransitEdgeProb > 1:
		return fmt.Errorf("topology: ExtraTransitEdgeProb = %v, need in [0,1]", s.ExtraTransitEdgeProb)
	case s.ExtraStubEdgeProb < 0 || s.ExtraStubEdgeProb > 1:
		return fmt.Errorf("topology: ExtraStubEdgeProb = %v, need in [0,1]", s.ExtraStubEdgeProb)
	case s.ExtraInterDomainLinks < 0:
		return fmt.Errorf("topology: ExtraInterDomainLinks = %d, need >= 0", s.ExtraInterDomainLinks)
	}
	return nil
}

// TotalNodes returns the number of hosts the spec generates.
func (s Spec) TotalNodes() int {
	transit := s.TransitDomains * s.TransitNodesPerDomain
	return transit + transit*s.StubsPerTransitNode*s.NodesPerStub
}

// TotalStubs returns the number of stub domains.
func (s Spec) TotalStubs() int {
	return s.TransitDomains * s.TransitNodesPerDomain * s.StubsPerTransitNode
}

// TSKLarge is the paper's tsk-large topology: a large backbone (8 transit
// domains x 8 transit nodes) with sparse stubs (4 stubs per transit node,
// 40 hosts each) — about 10,300 hosts. It models an overlay whose members
// are scattered across the whole Internet. Counts are paper-reconstructed
// (DESIGN.md §3).
func TSKLarge(latency LatencyModel) Spec {
	return Spec{
		TransitDomains:        8,
		TransitNodesPerDomain: 8,
		StubsPerTransitNode:   4,
		NodesPerStub:          40,
		ExtraTransitEdgeProb:  0.3,
		ExtraStubEdgeProb:     0.1,
		ExtraInterDomainLinks: 8,
		Latency:               latency,
	}
}

// TSKSmall is the paper's tsk-small topology: a small backbone (2 transit
// domains) with dense stubs (160 hosts each) — about 10,300 hosts. It
// models an overlay with many members per edge network.
func TSKSmall(latency LatencyModel) Spec {
	return Spec{
		TransitDomains:        2,
		TransitNodesPerDomain: 8,
		StubsPerTransitNode:   4,
		NodesPerStub:          160,
		ExtraTransitEdgeProb:  0.3,
		ExtraStubEdgeProb:     0.1,
		ExtraInterDomainLinks: 2,
		Latency:               latency,
	}
}

// Preset returns the paper topology named kind ("tsk-large" or
// "tsk-small") with the link latencies named latency ("gtitm" or
// "manual"), at paper scale.
func Preset(kind, latency string) (Spec, error) {
	var model LatencyModel
	switch latency {
	case "gtitm":
		model = GTITMLatency()
	case "manual":
		model = ManualLatency()
	default:
		return Spec{}, fmt.Errorf("topology: unknown latency model %q", latency)
	}
	switch kind {
	case "tsk-large":
		return TSKLarge(model), nil
	case "tsk-small":
		return TSKSmall(model), nil
	default:
		return Spec{}, fmt.Errorf("topology: unknown topology kind %q", kind)
	}
}

// Scaled returns a copy of the spec with NodesPerStub scaled by f (minimum
// one host per stub). It is used by the -quick experiment mode to shrink
// topologies while preserving their transit/stub character.
func (s Spec) Scaled(f float64) Spec {
	out := s
	n := int(float64(s.NodesPerStub)*f + 0.5)
	if n < 1 {
		n = 1
	}
	out.NodesPerStub = n
	return out
}

// SizedWide returns the spec with StubsPerTransitNode set so TotalNodes is
// as close as possible to (and at least) targetNodes, holding the backbone
// and stub density fixed. Where Scaled deepens each stub, SizedWide adds
// edge networks — the way an internet grows — so the preset's landmark
// behavior is preserved at any total size; ext-scale uses it to push
// preset-shaped topologies to 10^5–10^6 hosts.
func (s Spec) SizedWide(targetNodes int) Spec {
	transit := s.TransitDomains * s.TransitNodesPerDomain
	perStubNode := transit * s.NodesPerStub
	if perStubNode <= 0 {
		return s
	}
	want := targetNodes - transit
	stubs := (want + perStubNode - 1) / perStubNode
	if stubs < 1 {
		stubs = 1
	}
	out := s
	out.StubsPerTransitNode = stubs
	return out
}
