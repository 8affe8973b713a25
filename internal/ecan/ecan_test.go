package ecan

import (
	"testing"

	"gsso/internal/can"
	"gsso/internal/netsim"
	"gsso/internal/simrand"
	"gsso/internal/topology"
)

func testNet(t testing.TB) *topology.Network {
	t.Helper()
	spec := topology.Spec{
		TransitDomains:        3,
		TransitNodesPerDomain: 4,
		StubsPerTransitNode:   3,
		NodesPerStub:          12,
		ExtraTransitEdgeProb:  0.3,
		ExtraStubEdgeProb:     0.2,
		ExtraInterDomainLinks: 2,
		Latency:               topology.GTITMLatency(),
	}
	return topology.MustGenerate(spec, simrand.New(1))
}

func buildECAN(t testing.TB, net *topology.Network, n int, sel Selector) *Overlay {
	t.Helper()
	o, err := BuildUniform(net, n, 2, 0, sel, simrand.New(42))
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestNewValidation(t *testing.T) {
	net := testNet(t)
	c, _ := can.New(2)
	sel := RandomSelector{RNG: simrand.New(1)}
	if _, err := New(nil, 0, sel); err == nil {
		t.Fatal("nil CAN accepted")
	}
	if _, err := New(c, 0, nil); err == nil {
		t.Fatal("nil selector accepted")
	}
	if _, err := New(c, 9, sel); err == nil {
		t.Fatal("digitLen 9 accepted")
	}
	o, err := New(c, 0, sel)
	if err != nil {
		t.Fatal(err)
	}
	if o.DigitLen() != 2 {
		t.Fatalf("default digitLen = %d, want CAN dim", o.DigitLen())
	}
	_ = net
}

func TestRouteReachesOwner(t *testing.T) {
	net := testNet(t)
	o := buildECAN(t, net, 100, RandomSelector{RNG: simrand.New(7)})
	rng := simrand.New(9)
	members := o.CAN().Members()
	for i := 0; i < 100; i++ {
		from := members[rng.Intn(len(members))]
		target := can.RandomPoint(2, rng)
		res, err := o.Route(from, target)
		if err != nil {
			t.Fatal(err)
		}
		if res.Members[0] != from {
			t.Fatal("route does not start at source")
		}
		dst := res.Members[len(res.Members)-1]
		if !dst.Contains(target) {
			t.Fatalf("route ended at non-owner of %v", target)
		}
		if dst != o.CAN().Lookup(target) {
			t.Fatal("destination disagrees with Lookup")
		}
	}
}

func TestRouteToEveryMemberZone(t *testing.T) {
	net := testNet(t)
	o := buildECAN(t, net, 64, RandomSelector{RNG: simrand.New(3)})
	members := o.CAN().Members()
	src := members[0]
	for _, dst := range members {
		res, err := o.Route(src, dst.ZoneCenter())
		if err != nil {
			t.Fatalf("route to %v: %v", dst, err)
		}
		if res.Members[len(res.Members)-1] != dst {
			t.Fatalf("route to %v ended at %v", dst, res.Members[len(res.Members)-1])
		}
	}
}

func TestRouteSelf(t *testing.T) {
	net := testNet(t)
	o := buildECAN(t, net, 16, RandomSelector{RNG: simrand.New(3)})
	m := o.CAN().Members()[0]
	res, err := o.Route(m, m.ZoneCenter())
	if err != nil {
		t.Fatal(err)
	}
	if res.Hops() != 0 {
		t.Fatalf("self route hops = %d", res.Hops())
	}
	if res.Latency(netsim.New(net)) != 0 {
		t.Fatal("self route latency nonzero")
	}
}

func TestRouteValidation(t *testing.T) {
	net := testNet(t)
	o := buildECAN(t, net, 8, RandomSelector{RNG: simrand.New(3)})
	if _, err := o.Route(nil, can.Point{0.5, 0.5}); err == nil {
		t.Fatal("nil source accepted")
	}
	m := o.CAN().Members()[0]
	if _, err := o.Route(m, can.Point{2, 2}); err == nil {
		t.Fatal("invalid target accepted")
	}
}

func TestLogarithmicHops(t *testing.T) {
	// eCAN routing must use dramatically fewer hops than basic CAN greedy
	// routing at the same size and dimensionality.
	net := testNet(t)
	o := buildECAN(t, net, 256, RandomSelector{RNG: simrand.New(5)})
	rng := simrand.New(11)
	members := o.CAN().Members()
	ecanHops, canHops := 0, 0
	const trials = 100
	for i := 0; i < trials; i++ {
		from := members[rng.Intn(len(members))]
		target := can.RandomPoint(2, rng)
		res, err := o.Route(from, target)
		if err != nil {
			t.Fatal(err)
		}
		ecanHops += res.Hops()
		path, err := o.CAN().Route(from, target)
		if err != nil {
			t.Fatal(err)
		}
		canHops += len(path) - 1
	}
	avgE := float64(ecanHops) / trials
	avgC := float64(canHops) / trials
	t.Logf("N=256 d=2: eCAN %.2f hops, CAN %.2f hops", avgE, avgC)
	if avgE*1.5 >= avgC {
		t.Fatalf("eCAN (%.2f) not clearly better than CAN (%.2f)", avgE, avgC)
	}
	// log2(256)/2 = 4 digits; allow slack for uneven trees and fallbacks.
	if avgE > 8 {
		t.Fatalf("eCAN hops %.2f exceed ~2x digit bound", avgE)
	}
}

func TestHopBound(t *testing.T) {
	// Every route resolves at least one path bit per hop, so hop count is
	// bounded by the deepest leaf.
	net := testNet(t)
	o := buildECAN(t, net, 200, RandomSelector{RNG: simrand.New(19)})
	maxDepth := 0
	for _, m := range o.CAN().Members() {
		if d := m.Depth(); d > maxDepth {
			maxDepth = d
		}
	}
	rng := simrand.New(20)
	members := o.CAN().Members()
	for i := 0; i < 200; i++ {
		from := members[rng.Intn(len(members))]
		res, err := o.Route(from, can.RandomPoint(2, rng))
		if err != nil {
			t.Fatal(err)
		}
		if res.Hops() > maxDepth {
			t.Fatalf("route used %d hops, max leaf depth %d", res.Hops(), maxDepth)
		}
	}
}

func TestClosestSelectorBeatsRandomStretch(t *testing.T) {
	net := testNet(t)
	env := netsim.New(net)
	rng := simrand.New(13)

	run := func(sel Selector) float64 {
		o, err := BuildUniform(net, 128, 2, 0, sel, simrand.New(77))
		if err != nil {
			t.Fatal(err)
		}
		members := o.CAN().Members()
		pairRNG := simrand.New(5)
		total, count := 0.0, 0
		for i := 0; i < 200; i++ {
			src := members[pairRNG.Intn(len(members))]
			dst := members[pairRNG.Intn(len(members))]
			if src == dst || src.Host == dst.Host {
				continue
			}
			res, err := o.Route(src, dst.ZoneCenter())
			if err != nil {
				t.Fatal(err)
			}
			direct := env.Latency(src.Host, dst.Host)
			if direct <= 0 {
				continue
			}
			total += res.Latency(env) / direct
			count++
		}
		return total / float64(count)
	}

	randomStretch := run(RandomSelector{RNG: rng})
	optimalStretch := run(ClosestSelector{Env: env})
	t.Logf("stretch: random %.3f, optimal %.3f", randomStretch, optimalStretch)
	if optimalStretch >= randomStretch {
		t.Fatalf("optimal selection (%.3f) not better than random (%.3f)", optimalStretch, randomStretch)
	}
	if optimalStretch < 1 {
		t.Fatalf("stretch below 1 is impossible: %v", optimalStretch)
	}
}

func TestEntryCachedAndInvalidated(t *testing.T) {
	net := testNet(t)
	calls := 0
	sel := FuncSelector(func(self *can.Member, region can.Path, cands []*can.Member) *can.Member {
		calls++
		return cands[0]
	})
	o := buildECAN(t, net, 32, sel)
	m := o.CAN().Members()[0]
	digit := o.digitOf(m.Path(), 0) ^ 1 // a digit differing from mine
	e1 := o.Entry(m, 0, digit)
	callsAfterFirst := calls
	e2 := o.Entry(m, 0, digit)
	if calls != callsAfterFirst {
		t.Fatal("entry not cached")
	}
	if e1 != e2 {
		t.Fatal("cached entry changed")
	}
	o.InvalidateEntries(m)
	o.Entry(m, 0, digit)
	if calls == callsAfterFirst {
		t.Fatal("invalidation did not trigger re-selection")
	}
}

func TestSetSelectorResets(t *testing.T) {
	net := testNet(t)
	o := buildECAN(t, net, 32, RandomSelector{RNG: simrand.New(1)})
	m := o.CAN().Members()[0]
	o.Entry(m, 0, 0)
	seen := false
	o.SetSelector(FuncSelector(func(self *can.Member, region can.Path, cands []*can.Member) *can.Member {
		seen = true
		return cands[0]
	}))
	o.Entry(m, 0, 0)
	if !seen {
		t.Fatal("new selector not consulted after SetSelector")
	}
}

func TestRegionMembersBelowLeaf(t *testing.T) {
	net := testNet(t)
	o := buildECAN(t, net, 16, RandomSelector{RNG: simrand.New(1)})
	m := o.CAN().Members()[0]
	deep := m.Path()
	for deep.Len < m.Depth()+3 {
		deep = pathChild(deep, 0)
	}
	got := o.RegionMembers(deep)
	if len(got) != 1 || got[0] != m {
		t.Fatalf("below-leaf region = %v, want the covering leaf", got)
	}
}

func TestRefreshAfterChurn(t *testing.T) {
	net := testNet(t)
	o := buildECAN(t, net, 40, RandomSelector{RNG: simrand.New(1)})
	rng := simrand.New(2)
	// Add members behind the eCAN's back, then Refresh.
	for i := 0; i < 10; i++ {
		if _, err := o.CAN().JoinRandom(net.RandomStubHosts(rng, 1)[0], rng); err != nil {
			t.Fatal(err)
		}
	}
	o.Refresh()
	members := o.CAN().Members()
	src := members[0]
	for i := 0; i < 20; i++ {
		dst := members[rng.Intn(len(members))]
		res, err := o.Route(src, dst.ZoneCenter())
		if err != nil {
			t.Fatal(err)
		}
		if res.Members[len(res.Members)-1] != dst {
			t.Fatal("post-refresh routing broken")
		}
	}
}

func TestDigitOf(t *testing.T) {
	net := testNet(t)
	o := buildECAN(t, net, 8, RandomSelector{RNG: simrand.New(1)})
	p := can.Path{}
	p = pathChild(p, 1)
	p = pathChild(p, 0)
	p = pathChild(p, 1)
	p = pathChild(p, 1)
	if d := o.digitOf(p, 0); d != 0b10 {
		t.Fatalf("digit 0 = %b", d)
	}
	if d := o.digitOf(p, 1); d != 0b11 {
		t.Fatalf("digit 1 = %b", d)
	}
	// Beyond path length: zero-padded.
	if d := o.digitOf(p, 2); d != 0 {
		t.Fatalf("digit 2 = %b", d)
	}
}

func TestPickAvoidingSelf(t *testing.T) {
	o, _ := can.New(2)
	m1, _ := o.Join(1, can.Point{0.2, 0.2})
	m2, _ := o.Join(2, can.Point{0.8, 0.8})
	rng := simrand.New(1)
	for i := 0; i < 20; i++ {
		got := pickAvoidingSelf(m1, []*can.Member{m1, m2}, rng.Intn)
		if got != m2 {
			t.Fatalf("picked self")
		}
	}
	if got := pickAvoidingSelf(m1, []*can.Member{m1}, rng.Intn); got != m1 {
		t.Fatal("sole candidate should be returned even if self")
	}
	if got := pickAvoidingSelf(m1, nil, rng.Intn); got != nil {
		t.Fatal("empty candidates should return nil")
	}
}

func BenchmarkECANRoute(b *testing.B) {
	net := testNet(b)
	o, err := BuildUniform(net, 256, 2, 0, RandomSelector{RNG: simrand.New(7)}, simrand.New(42))
	if err != nil {
		b.Fatal(err)
	}
	members := o.CAN().Members()
	rng := simrand.New(9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := members[i%len(members)]
		if _, err := o.Route(from, can.RandomPoint(2, rng)); err != nil {
			b.Fatal(err)
		}
	}
}
