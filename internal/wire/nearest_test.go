package wire

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"gsso/internal/ecan"
	"gsso/internal/landmark"
	"gsso/internal/netsim"
	"gsso/internal/simrand"
	"gsso/internal/softstate"
	"gsso/internal/topology"
)

func TestSpaceConfigNumberMatchesLandmarkSpace(t *testing.T) {
	cfg := testConfig([]string{"a", "b", "c", "d", "e"})
	space, err := landmark.NewSpace(landmark.NewSet(make([]topology.NodeID, len(cfg.Landmarks))),
		cfg.IndexDims, cfg.BitsPerDim, cfg.MaxRTTMs)
	if err != nil {
		t.Fatal(err)
	}
	for _, vec := range [][]float64{{0, 0, 0, 0, 0}, {12.5, 49, 3, 7, 7}, {80, -1, 25, 0, 60}} {
		want, err := space.Number(vec)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := cfg.Number(vec); err != nil || got != want {
			t.Fatalf("SpaceConfig.Number(%v) = %d, %v; landmark.Space.Number = %d", vec, got, err, want)
		}
	}
	if _, err := cfg.Number([]float64{1, 2}); err == nil {
		t.Fatal("a vector shorter than IndexDims was accepted")
	}
	vec := []float64{12.5, 49, 3, 7, 7}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = cfg.Number(vec) }); allocs != 0 {
		t.Fatalf("SpaceConfig.Number allocates %v times per call, want 0", allocs)
	}
}

// TestPickNearest pins find-nearest's post-query step: re-rank by vector
// (the owner's curve order is ignored), self skipped for free, a failed
// ping charged and never the winner, a foreign-space record dropped.
func TestPickNearest(t *testing.T) {
	recs := func() []Record {
		return []Record{
			{Addr: "far", Vector: []float64{9, 9}},
			{Addr: "self", Vector: []float64{0, 0}},
			{Addr: "odd", Vector: []float64{0, 0, 0}}, // another landmark space
			{Addr: "dead", Vector: []float64{1, 0}},
			{Addr: "mid", Vector: []float64{2, 0}},
			{Addr: "near", Vector: []float64{1, 1}},
		}
	}
	rtts := map[string]time.Duration{"far": 1 * time.Millisecond, "mid": 4 * time.Millisecond, "near": 6 * time.Millisecond}
	cases := []struct {
		budget     int
		wantAddr   string
		wantProbes int
	}{
		{budget: 1, wantAddr: "", wantProbes: 1},     // dead ranks first
		{budget: 2, wantAddr: "near", wantProbes: 2}, // dead, near
		{budget: 3, wantAddr: "mid", wantProbes: 3},  // dead, near, mid
		{budget: 9, wantAddr: "far", wantProbes: 4},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprint("budget=", tc.budget), func(t *testing.T) {
			var pinged []string
			addr, rtt, probes := pickNearest("self", []float64{0, 0}, recs(), tc.budget,
				func(addr string) (time.Duration, error) {
					pinged = append(pinged, addr)
					if d, ok := rtts[addr]; ok {
						return d, nil
					}
					return 0, errors.New("connection refused")
				})
			if addr != tc.wantAddr || probes != tc.wantProbes || rtt != rtts[tc.wantAddr] {
				t.Fatalf("pickNearest = (%q, %v, %d), want (%q, %v, %d); pinged %v",
					addr, rtt, probes, tc.wantAddr, rtts[tc.wantAddr], tc.wantProbes, pinged)
			}
		})
	}
}

// TestHybridSearchAgreesAcrossStacks feeds one candidate set (a region's
// soft-state entries, with the simulator's RTTs and one dead member) to
// the simulator's selector and to the live stack's post-query step, and
// requires the same winner and the same probe count.
func TestHybridSearchAgreesAcrossStacks(t *testing.T) {
	cases := []struct {
		budget, deadAt int // deadAt: rank of the dead member among the others
	}{
		{1, 0}, {1, 1}, {2, 0}, {2, 1}, {3, 1}, {4, 2}, {64, 0},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("budget=%d/dead=%d", tc.budget, tc.deadAt), func(t *testing.T) {
			h := newSimStack(t)
			self := h.ov.CAN().Members()[0]
			region := self.Path().Prefix(h.ov.DigitLen())
			vec := h.store.Vector(self)
			// The scripted set: every live entry of the region, ranked the
			// way the simulator ranks it, so deadAt names a rank.
			entries := h.store.RegionEntries(region)
			ranked := slices.Clone(entries)
			softstate.RankEntries(ranked, vec)
			var others []*softstate.Entry
			for _, e := range ranked {
				if e.Member != self {
					others = append(others, e)
				}
			}
			if len(others) <= tc.deadAt+2 {
				t.Fatalf("region has %d other members", len(others))
			}
			if len(entries) > h.store.Config().MaxReturn {
				t.Fatalf("region has %d entries, more than a lookup returns", len(entries))
			}
			deadHost := others[tc.deadAt].Host
			h.env.SetDown(deadHost, true)

			// The live side: the owner's reply is in curve-number order.
			addrOf := func(host topology.NodeID) string { return fmt.Sprintf("h%06d", host) }
			hostOf := map[string]topology.NodeID{}
			recs := make([]Record, len(entries))
			for i, e := range entries {
				recs[i] = Record{Addr: addrOf(e.Host), Vector: e.Vector, Number: e.Number}
				hostOf[recs[i].Addr] = e.Host
			}
			slices.SortFunc(recs, func(a, b Record) int { return cmp.Compare(a.Number, b.Number) })
			addr, _, liveProbes := pickNearest(addrOf(self.Host), vec, recs, tc.budget,
				func(addr string) (time.Duration, error) {
					host := hostOf[addr]
					if host == deadHost {
						return 0, errors.New("timeout")
					}
					return time.Duration(h.env.Latency(self.Host, host) * 2 * float64(time.Millisecond)), nil
				})

			// The simulator side: lookup + Selector, probes read off env.
			sel, err := softstate.NewSelector(h.store, tc.budget, nil)
			if err != nil {
				t.Fatal(err)
			}
			h.env.ResetProbes()
			got := sel.Select(self, region, nil)
			simProbes := int(h.env.ResetProbes())
			simAddr := ""
			if got != nil {
				simAddr = addrOf(got.Host)
			}
			if addr != simAddr || liveProbes != simProbes {
				t.Fatalf("live picked %q after %d probes, simulator %q after %d", addr, liveProbes, simAddr, simProbes)
			}
			if tc.deadAt < tc.budget && h.store.Vector(others[tc.deadAt].Member) != nil {
				t.Fatal("the simulator did not purge the dead member it probed")
			}
		})
	}
}

// simStack is a small simulator stack: one eCAN with published soft-state.
type simStack struct {
	env   *netsim.Env
	ov    *ecan.Overlay
	store *softstate.Store
}

func newSimStack(t *testing.T) *simStack {
	t.Helper()
	net := topology.MustGenerate(topology.Spec{
		TransitDomains:        2,
		TransitNodesPerDomain: 3,
		StubsPerTransitNode:   2,
		NodesPerStub:          10,
		ExtraTransitEdgeProb:  0.3,
		ExtraStubEdgeProb:     0.2,
		ExtraInterDomainLinks: 1,
		Latency:               topology.GTITMLatency(),
	}, simrand.New(1))
	env := netsim.New(net)
	rng := simrand.New(2)
	ov, err := ecan.BuildUniform(net, 32, 2, 0, ecan.RandomSelector{RNG: rng.Split("sel")}, rng)
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
	cfg := softstate.DefaultConfig()
	cfg.MaxReturn, cfg.ExpandBudget = 64, 64 // a lookup returns the whole region
	store, err := softstate.NewStore(ov, space, env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.PublishAll(nil); err != nil {
		t.Fatal(err)
	}
	return &simStack{env: env, ov: ov, store: store}
}
