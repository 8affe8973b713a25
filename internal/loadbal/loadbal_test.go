package loadbal

import (
	"math"
	"testing"

	"gsso/internal/can"
	"gsso/internal/ecan"
	"gsso/internal/landmark"
	"gsso/internal/netsim"
	"gsso/internal/simrand"
	"gsso/internal/softstate"
	"gsso/internal/topology"
)

type harness struct {
	net     *topology.Network
	env     *netsim.Env
	overlay *ecan.Overlay
	store   *softstate.Store
}

func newHarness(t testing.TB, members int) *harness {
	t.Helper()
	spec := topology.Spec{
		TransitDomains:        2,
		TransitNodesPerDomain: 4,
		StubsPerTransitNode:   3,
		NodesPerStub:          14,
		ExtraTransitEdgeProb:  0.3,
		ExtraStubEdgeProb:     0.2,
		ExtraInterDomainLinks: 1,
		Latency:               topology.GTITMLatency(),
	}
	net := topology.MustGenerate(spec, simrand.New(1))
	env := netsim.New(net)
	rng := simrand.New(2)
	ov, err := ecan.BuildUniform(net, members, 2, 0, ecan.RandomSelector{RNG: rng.Split("sel")}, rng)
	if err != nil {
		t.Fatal(err)
	}
	set, err := landmark.Choose(net, 6, rng.Split("lm"))
	if err != nil {
		t.Fatal(err)
	}
	space, err := landmark.NewSpace(set, 3, 5,
		landmark.EstimateMaxRTT(net, set, net.RandomStubHosts(rng.Split("est"), 20)))
	if err != nil {
		t.Fatal(err)
	}
	store, err := softstate.NewStore(ov, space, env, softstate.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return &harness{net: net, env: env, overlay: ov, store: store}
}

func TestPenalty(t *testing.T) {
	cases := []struct {
		name                  string
		load, capacity, alpha float64
		want                  float64
	}{
		{"alpha-zero", 5, 10, 0, 1},
		{"idle", 0, 10, 1, 1},
		{"half", 5, 10, 1, 2},
		{"half-alpha2", 5, 10, 2, 3},
		{"negative-load", -3, 10, 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Penalty(tc.load, tc.capacity, tc.alpha); math.Abs(got-tc.want) > 1e-12 {
				t.Fatalf("Penalty = %v, want %v", got, tc.want)
			}
		})
	}
	if !math.IsInf(Penalty(10, 10, 1), 1) {
		t.Fatal("saturated node should have infinite penalty")
	}
	if !math.IsInf(Penalty(11, 10, 1), 1) {
		t.Fatal("oversaturated node should have infinite penalty")
	}
	if !math.IsInf(Penalty(5, 0, 1), 1) {
		t.Fatal("zero capacity should have infinite penalty")
	}
}

func TestScoreMonotoneInLoad(t *testing.T) {
	prev := 0.0
	for load := 0.0; load < 10; load++ {
		s := Score(7, load, 10, 1.5)
		if s <= prev && load > 0 {
			t.Fatalf("score not increasing at load %v: %v <= %v", load, s, prev)
		}
		prev = s
	}
}

func TestNewSelectorValidation(t *testing.T) {
	h := newHarness(t, 16)
	if _, err := NewSelector(nil, 3, 1, nil); err == nil {
		t.Fatal("nil store accepted")
	}
	if _, err := NewSelector(h.store, 0, 1, nil); err == nil {
		t.Fatal("zero budget accepted")
	}
	if _, err := NewSelector(h.store, 3, -1, nil); err == nil {
		t.Fatal("negative alpha accepted")
	}
	if _, err := NewSelector(h.store, 3, math.NaN(), nil); err == nil {
		t.Fatal("NaN alpha accepted")
	}
}

func TestSelectorAvoidsSaturatedNodes(t *testing.T) {
	h := newHarness(t, 96)
	if err := h.store.PublishAll(func(m *can.Member) []softstate.PublishOption {
		return []softstate.PublishOption{softstate.WithCapacity(10)}
	}); err != nil {
		t.Fatal(err)
	}
	m := h.overlay.CAN().Members()[0]
	region := m.Path().Prefix(h.overlay.DigitLen())
	vec := h.store.Vector(m)

	// Find what pure proximity would select, then saturate it.
	pure, err := NewSelector(h.store, 10, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	cands := h.overlay.RegionMembers(region)
	first := pure.Select(m, region, cands)
	if first == nil || first == m {
		t.Skip("no distinct selection possible")
	}
	h.store.UpdateLoad(first, 10) // utilization 1.0

	balanced, err := NewSelector(h.store, 10, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := balanced.Select(m, region, cands)
	if got == first {
		entries, _, _ := h.store.Lookup(region, vec)
		if len(entries) > 1 {
			t.Fatal("selector picked a saturated node despite alternatives")
		}
	}
}

// TestSelectorDeadThenSaturated: when the first probed candidate times out
// and every other one is saturated, the first reachable saturated one is
// still selected (no fallback), and only the dead one is purged.
func TestSelectorDeadThenSaturated(t *testing.T) {
	h := newHarness(t, 96)
	if err := h.store.PublishAll(func(m *can.Member) []softstate.PublishOption {
		return []softstate.PublishOption{softstate.WithCapacity(10)}
	}); err != nil {
		t.Fatal(err)
	}
	m := h.overlay.CAN().Members()[0]
	region := m.Path().Prefix(h.overlay.DigitLen())
	entries, _, err := h.store.Lookup(region, h.store.Vector(m))
	if err != nil {
		t.Fatal(err)
	}
	var others []*can.Member
	for _, e := range entries {
		if e.Member != m {
			others = append(others, e.Member)
		}
	}
	if len(others) < 3 {
		t.Fatalf("lookup returned %d other members, need 3", len(others))
	}
	dead := others[0]
	h.env.SetDown(dead.Host, true)
	for _, o := range others[1:] {
		h.store.UpdateLoad(o, 10) // utilization 1.0
	}
	usedFallback := false
	fb := ecan.FuncSelector(func(*can.Member, can.Path, []*can.Member) *can.Member {
		usedFallback = true
		return nil
	})
	sel, err := NewSelector(h.store, len(entries), 1, fb)
	if err != nil {
		t.Fatal(err)
	}
	got := sel.Select(m, region, nil)
	if usedFallback || got != others[1] {
		t.Fatalf("Select = %v (fallback %v), want the first reachable saturated member %v",
			got, usedFallback, others[1])
	}
	if h.store.Vector(dead) != nil {
		t.Fatal("the timed-out member was not reported dead")
	}
	for _, o := range others[1:] {
		if h.store.Vector(o) == nil {
			t.Fatal("a saturated but reachable member was reported dead")
		}
	}
}

func TestSelectorFallback(t *testing.T) {
	h := newHarness(t, 32)
	used := false
	fb := ecan.FuncSelector(func(self *can.Member, region can.Path, cands []*can.Member) *can.Member {
		used = true
		return cands[0]
	})
	sel, err := NewSelector(h.store, 3, 1, fb)
	if err != nil {
		t.Fatal(err)
	}
	m := h.overlay.CAN().Members()[0] // unpublished
	if got := sel.Select(m, m.Path().Prefix(2), h.overlay.CAN().Members()); got == nil || !used {
		t.Fatal("fallback not used")
	}
	sel2, _ := NewSelector(h.store, 3, 1, nil)
	cands := h.overlay.CAN().Members()
	if got := sel2.Select(m, m.Path().Prefix(2), cands); got != cands[0] {
		t.Fatal("nil fallback should return first candidate")
	}
}

func TestRunTrafficValidation(t *testing.T) {
	h := newHarness(t, 16)
	rng := simrand.New(3)
	caps := map[*can.Member]float64{}
	if _, err := RunTraffic(nil, h.env, caps, map[*can.Member]float64{}, 10, rng); err == nil {
		t.Fatal("nil overlay accepted")
	}
	if _, err := RunTraffic(h.overlay, h.env, caps, nil, 10, rng); err == nil {
		t.Fatal("nil loads accepted")
	}
}

func TestRunTrafficAccumulatesLoad(t *testing.T) {
	h := newHarness(t, 64)
	rng := simrand.New(4)
	members := h.overlay.CAN().Members()
	caps := AssignHeterogeneousCapacities(members, 0.2, 100, 10, rng.Split("caps"))
	loads := map[*can.Member]float64{}
	rep, err := RunTraffic(h.overlay, h.env, caps, loads, 300, rng.Split("t"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Routes == 0 {
		t.Fatal("no routes measured")
	}
	if rep.MeanStretch < 1 {
		t.Fatalf("stretch below 1: %v", rep.MeanStretch)
	}
	sum := 0.0
	for _, l := range loads {
		sum += l
	}
	if int(sum) != rep.TotalHops {
		t.Fatalf("loads sum %v != TotalHops %d", sum, rep.TotalHops)
	}
	if rep.MaxUtilization < rep.MeanUtilization {
		t.Fatal("max < mean utilization")
	}
	// Second round accumulates.
	rep2, err := RunTraffic(h.overlay, h.env, caps, loads, 300, rng.Split("t2"))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.MaxUtilization < rep.MaxUtilization {
		t.Fatal("accumulated utilization decreased")
	}
}

func TestAssignHeterogeneousCapacities(t *testing.T) {
	h := newHarness(t, 64)
	members := h.overlay.CAN().Members()
	caps := AssignHeterogeneousCapacities(members, 0.25, 100, 10, simrand.New(5))
	if len(caps) != len(members) {
		t.Fatal("not all members assigned")
	}
	strong, weak := 0, 0
	for _, c := range caps {
		switch c {
		case 100:
			strong++
		case 10:
			weak++
		default:
			t.Fatalf("unexpected capacity %v", c)
		}
	}
	if strong == 0 || weak == 0 {
		t.Fatalf("degenerate split: %d strong, %d weak", strong, weak)
	}
}

// TestBalancingReducesPeakUtilization is the §6 headline: with load-aware
// selection, traffic concentrates less on the proximity-favorite nodes.
func TestBalancingReducesPeakUtilization(t *testing.T) {
	h := newHarness(t, 96)
	members := h.overlay.CAN().Members()
	capRNG := simrand.New(6)
	caps := AssignHeterogeneousCapacities(members, 0.2, 200, 20, capRNG)
	if err := h.store.PublishAll(func(m *can.Member) []softstate.PublishOption {
		return []softstate.PublishOption{softstate.WithCapacity(caps[m])}
	}); err != nil {
		t.Fatal(err)
	}

	run := func(alpha float64) float64 {
		sel, err := NewSelector(h.store, 8, alpha, ecan.RandomSelector{RNG: simrand.New(7)})
		if err != nil {
			t.Fatal(err)
		}
		h.overlay.SetSelector(sel)
		loads := map[*can.Member]float64{}
		maxU := 0.0
		// Feedback rounds: route, publish loads, re-select.
		for round := 0; round < 3; round++ {
			rep, err := RunTraffic(h.overlay, h.env, caps, loads, 400, simrand.New(uint64(100+round)))
			if err != nil {
				t.Fatal(err)
			}
			maxU = rep.MaxUtilization
			for m, l := range loads {
				h.store.UpdateLoad(m, l)
			}
			for _, m := range members {
				h.overlay.InvalidateEntries(m)
			}
		}
		return maxU
	}

	peakGreedy := run(0)
	peakBalanced := run(2)
	t.Logf("peak utilization: alpha=0 %.2f, alpha=2 %.2f", peakGreedy, peakBalanced)
	if peakBalanced > peakGreedy*1.1 {
		t.Fatalf("balancing made peak worse: %.2f vs %.2f", peakBalanced, peakGreedy)
	}
}
