package landmark

import (
	"math"
	"slices"
	"sort"
	"testing"

	"gsso/internal/netsim"
	"gsso/internal/simrand"
	"gsso/internal/topology"
)

func testNet(t *testing.T) *topology.Network {
	t.Helper()
	spec := topology.Spec{
		TransitDomains:        3,
		TransitNodesPerDomain: 3,
		StubsPerTransitNode:   2,
		NodesPerStub:          10,
		ExtraTransitEdgeProb:  0.3,
		ExtraStubEdgeProb:     0.2,
		ExtraInterDomainLinks: 2,
		Latency:               topology.GTITMLatency(),
	}
	return topology.MustGenerate(spec, simrand.New(1))
}

func TestChoose(t *testing.T) {
	net := testNet(t)
	set, err := Choose(net, 8, simrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 8 {
		t.Fatalf("Len = %d", set.Len())
	}
	seen := map[topology.NodeID]bool{}
	for _, n := range set.Nodes() {
		if net.Node(n).Class != topology.ClassStub {
			t.Fatalf("landmark %d is not a stub host", n)
		}
		if seen[n] {
			t.Fatalf("duplicate landmark %d", n)
		}
		seen[n] = true
	}
}

func TestChooseValidation(t *testing.T) {
	net := testNet(t)
	if _, err := Choose(net, 0, simrand.New(1)); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := Choose(net, net.Len()+1, simrand.New(1)); err == nil {
		t.Fatal("oversized k accepted")
	}
}

func TestNodesReturnsCopy(t *testing.T) {
	set := NewSet([]topology.NodeID{10, 11, 12})
	nodes := set.Nodes()
	nodes[0] = 99
	if set.Nodes()[0] != 10 {
		t.Fatal("Nodes leaked internal slice")
	}
}

func TestMeasure(t *testing.T) {
	net := testNet(t)
	env := netsim.New(net)
	set, _ := Choose(net, 5, simrand.New(2))
	host := net.StubHosts()[0]
	v := Measure(env, host, set)
	if len(v) != 5 {
		t.Fatalf("vector len = %d", len(v))
	}
	if env.Probes() != 5 {
		t.Fatalf("Measure used %d probes, want 5", env.Probes())
	}
	for i, lm := range set.Nodes() {
		if want := net.RTT(host, lm); v[i] != want {
			t.Fatalf("v[%d] = %v, want %v", i, v[i], want)
		}
	}
}

func TestMeasureInto(t *testing.T) {
	net := testNet(t)
	env := netsim.New(net)
	set, _ := Choose(net, 5, simrand.New(2))
	hosts := net.StubHosts()[:3]
	backing := make(Vector, len(hosts)*set.Len())
	for i, h := range hosts {
		dst := backing[i*set.Len() : (i+1)*set.Len()]
		got := MeasureInto(env, h, set, dst)
		if &got[0] != &dst[0] {
			t.Fatal("MeasureInto did not fill the caller's storage")
		}
		want := Measure(netsim.New(net), h, set)
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("host %d dim %d: MeasureInto = %v, Measure = %v", h, k, got[k], want[k])
			}
		}
	}
	if env.Probes() != int64(len(hosts)*set.Len()) {
		t.Fatalf("MeasureInto used %d probes, want %d", env.Probes(), len(hosts)*set.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MeasureInto accepted a dst of the wrong length")
		}
	}()
	MeasureInto(env, hosts[0], set, make(Vector, set.Len()+1))
}

func TestDistance(t *testing.T) {
	if d := Distance(Vector{0, 0}, Vector{3, 4}); d != 5 {
		t.Fatalf("Distance = %v", d)
	}
	if d := Distance(Vector{1, 2, 3}, Vector{1, 2, 3}); d != 0 {
		t.Fatalf("self distance = %v", d)
	}
}

func TestDistancePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Distance(Vector{1}, Vector{1, 2})
}

func TestOrdering(t *testing.T) {
	v := Vector{30, 10, 20}
	got := v.Ordering()
	want := []int{1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ordering = %v, want %v", got, want)
		}
	}
}

func TestOrderingTiesDeterministic(t *testing.T) {
	v := Vector{5, 5, 5}
	got := v.Ordering()
	if got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("tie ordering = %v", got)
	}
}

func TestSameOrdering(t *testing.T) {
	a := Vector{1, 5, 3}
	b := Vector{2, 9, 4} // same relative order
	c := Vector{9, 1, 3}
	if !SameOrdering(a, b) {
		t.Fatal("equal orderings not detected")
	}
	if SameOrdering(a, c) {
		t.Fatal("different orderings reported equal")
	}
	if SameOrdering(a, Vector{1, 2}) {
		t.Fatal("dimension mismatch reported equal")
	}
}

func TestNewSpaceValidation(t *testing.T) {
	set := NewSet([]topology.NodeID{1, 2, 3})
	if _, err := NewSpace(Set{}, 2, 4, 100); err == nil {
		t.Fatal("empty set accepted")
	}
	if _, err := NewSpace(set, 0, 4, 100); err == nil {
		t.Fatal("indexDims=0 accepted")
	}
	if _, err := NewSpace(set, 2, 4, 0); err == nil {
		t.Fatal("maxRTT=0 accepted")
	}
	if _, err := NewSpace(set, 2, 40, 100); err == nil {
		t.Fatal("oversized curve accepted")
	}
	sp, err := NewSpace(set, 10, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	if sp.IndexDims() != 3 {
		t.Fatalf("indexDims not clamped to set size: %d", sp.IndexDims())
	}
}

func TestSpaceAccessors(t *testing.T) {
	set := NewSet([]topology.NodeID{1, 2, 3, 4})
	sp, err := NewSpace(set, 2, 5, 200)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Set().Len() != 4 || sp.MaxRTT() != 200 || sp.Curve().Bits() != 5 {
		t.Fatal("accessors wrong")
	}
	if sp.MaxNumber() != 1<<10-1 {
		t.Fatalf("MaxNumber = %d", sp.MaxNumber())
	}
}

func TestNumberValidation(t *testing.T) {
	set := NewSet([]topology.NodeID{1, 2, 3})
	sp, _ := NewSpace(set, 2, 4, 100)
	if _, err := sp.Number(Vector{1, 2}); err == nil {
		t.Fatal("short vector accepted")
	}
}

// TestNumberAllocationFreeAndExact: Number quantizes and encodes on the
// stack, and every cell of a 3x6-bit grid still gets the number Encode
// gives its coordinates — the one Decode maps back to that cell.
func TestNumberAllocationFreeAndExact(t *testing.T) {
	const bits = 6
	sp, err := NewSpace(NewSet([]topology.NodeID{1, 2, 3, 4}), 3, bits, 1<<bits)
	if err != nil {
		t.Fatal(err)
	}
	v := Vector{0, 0, 0, 1e9} // the fourth component is not indexed
	var seen [1 << (3 * bits)]bool
	for x := uint32(0); x < 1<<bits; x++ {
		for y := uint32(0); y < 1<<bits; y++ {
			for z := uint32(0); z < 1<<bits; z++ {
				v[0], v[1], v[2] = float64(x)+0.5, float64(y)+0.5, float64(z)+0.5
				num, err := sp.Number(v)
				if err != nil {
					t.Fatal(err)
				}
				want, err := sp.Curve().Encode([]uint32{x, y, z})
				if err != nil || num != want || seen[num] {
					t.Fatalf("cell (%d,%d,%d): Number %d, Encode %d (%v), seen before %v", x, y, z, num, want, err, seen[num])
				}
				seen[num] = true
				back, err := sp.Curve().Decode(num)
				if err != nil || back[0] != x || back[1] != y || back[2] != z {
					t.Fatalf("cell (%d,%d,%d): number %d decodes to %v", x, y, z, num, back)
				}
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = sp.Number(v) }); allocs != 0 {
		t.Fatalf("Number allocates %v times per call", allocs)
	}
}

func TestNumberLocalityAsPreselection(t *testing.T) {
	// The use-case the paper cares about: picking the nodes whose landmark
	// numbers are nearest to mine should yield physically closer candidates
	// than picking nodes at random.
	net := testNet(t)
	env := netsim.New(net)
	set, _ := Choose(net, 6, simrand.New(3))
	hosts := net.StubHosts()
	sp, err := NewSpace(set, 3, 6, EstimateMaxRTT(net, set, hosts[:40]))
	if err != nil {
		t.Fatal(err)
	}
	numbers := make(map[topology.NodeID]uint64, len(hosts))
	for _, h := range hosts {
		n, err := sp.Number(Measure(env, h, set))
		if err != nil {
			t.Fatal(err)
		}
		numbers[h] = n
	}
	absDiff := func(a, b uint64) uint64 {
		if a > b {
			return a - b
		}
		return b - a
	}
	rng := simrand.New(77)
	var bySFC, byRandom float64
	probes := rng.Sample(len(hosts), 20)
	for _, pi := range probes {
		me := hosts[pi]
		// 10 nearest by landmark number.
		others := make([]topology.NodeID, 0, len(hosts)-1)
		for _, h := range hosts {
			if h != me {
				others = append(others, h)
			}
		}
		sort.Slice(others, func(i, j int) bool {
			return absDiff(numbers[others[i]], numbers[me]) < absDiff(numbers[others[j]], numbers[me])
		})
		for _, h := range others[:10] {
			bySFC += net.Latency(me, h)
		}
		for _, ri := range rng.Sample(len(others), 10) {
			byRandom += net.Latency(me, others[ri])
		}
	}
	if bySFC >= byRandom {
		t.Fatalf("landmark-number preselection no better than random: %v vs %v", bySFC, byRandom)
	}
	t.Logf("mean latency: sfc-preselected %.2f ms, random %.2f ms", bySFC/200, byRandom/200)
}

func TestNumberToUnitPoint(t *testing.T) {
	set := NewSet([]topology.NodeID{1, 2})
	sp, _ := NewSpace(set, 2, 4, 100)
	pt, err := sp.NumberToUnitPoint(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(pt) != 2 {
		t.Fatalf("point dims = %d", len(pt))
	}
	for _, v := range pt {
		if v < 0 || v >= 1 {
			t.Fatalf("point %v outside unit cube", pt)
		}
	}
}

func TestEstimateMaxRTT(t *testing.T) {
	net := testNet(t)
	set, _ := Choose(net, 4, simrand.New(5))
	sample := net.StubHosts()[:20]
	est := EstimateMaxRTT(net, set, sample)
	if est <= 0 || math.IsInf(est, 0) {
		t.Fatalf("estimate = %v", est)
	}
	// Every sampled RTT must be within the estimate.
	for _, h := range sample {
		for _, lm := range set.Nodes() {
			if net.RTT(h, lm) > est {
				t.Fatalf("RTT %v exceeds estimate %v", net.RTT(h, lm), est)
			}
		}
	}
	if EstimateMaxRTT(net, set, nil) != 1.25 {
		t.Fatal("empty sample should return padded floor")
	}

	// Calibrate is Choose -> EstimateMaxRTT over 32 stub hosts -> NewSpace(3, 6).
	sp, err := Calibrate(net, 4, simrand.New(5), simrand.New(6))
	if err != nil {
		t.Fatal(err)
	}
	want := EstimateMaxRTT(net, set, net.RandomStubHosts(simrand.New(6), 32))
	if sp.MaxRTT() != want || sp.IndexDims() != 3 || sp.Curve().Bits() != 6 ||
		!slices.Equal(sp.Set().Nodes(), set.Nodes()) {
		t.Fatalf("Calibrate space: maxRTT %v (want %v), dims %d, bits %d",
			sp.MaxRTT(), want, sp.IndexDims(), sp.Curve().Bits())
	}
	if _, err := Calibrate(net, 0, simrand.New(5), simrand.New(6)); err == nil {
		t.Fatal("Calibrate accepted k = 0")
	}
}
