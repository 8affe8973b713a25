package experiment

import (
	"fmt"

	"gsso/internal/experiment/engine"
	"gsso/internal/landmark"
	"gsso/internal/netsim"
	"gsso/internal/pastry"
	"gsso/internal/proximity"
	"gsso/internal/simrand"
	"gsso/internal/topology"
)

// RunExtPastry demonstrates the conclusion's generality claim on a real
// Pastry: "the techniques are generic for overlay networks such as
// Pastry, Chord, and eCAN, where there exists flexibility in selecting
// routing neighbors." The same landmark+RTT machinery that drives eCAN's
// high-order neighbor selection fills Pastry routing tables: candidates
// for each slot are ranked by landmark-vector distance (what the
// soft-state maps return) and a budget of RTT probes picks the winner.
func RunExtPastry(sc Scale) ([]*Table, error) {
	net, err := buildNet(TSKLarge, LatGTITM, sc)
	if err != nil {
		return nil, err
	}
	env := netsim.NewRun(net, "ext-pastry")
	rng := simrand.New(sc.Seed).Split("extpastry")
	hosts := net.RandomStubHosts(rng.Split("hosts"), sc.OverlayN)

	space, err := landmark.Calibrate(net, sc.Landmarks, rng.Split("lm"), rng.Split("est"))
	if err != nil {
		return nil, err
	}
	index, err := proximity.BuildIndex(env, space, hosts)
	if err != nil {
		return nil, err
	}

	build := func(sel pastry.Selector) (*pastry.Overlay, error) {
		o, err := pastry.New(4, 8)
		if err != nil {
			return nil, err
		}
		joinRNG := simrand.New(sc.Seed).Split("extpastry/join") // same ring for every selector
		for _, h := range hosts {
			if _, err := o.JoinRandom(h, joinRNG); err != nil {
				return nil, err
			}
		}
		return o, o.Build(sel)
	}
	stretchOf := func(o *pastry.Overlay) (float64, error) {
		nodes := o.Nodes()
		pairRNG := simrand.New(sc.Seed).Split("extpastry/pairs")
		total, count := 0.0, 0
		for i := 0; i < sc.QueriesFor(sc.OverlayN); i++ {
			src := nodes[pairRNG.Intn(len(nodes))]
			dst := nodes[pairRNG.Intn(len(nodes))]
			if src == dst || src.Host == dst.Host {
				continue
			}
			path, err := o.Route(src, dst.ID)
			if err != nil {
				return 0, err
			}
			lat := 0.0
			for h := 1; h < len(path); h++ {
				lat += env.Latency(path[h-1].Host, path[h].Host)
			}
			direct := env.Latency(src.Host, dst.Host)
			if direct <= 0 {
				continue
			}
			total += lat / direct
			count++
		}
		return total / float64(count), nil
	}

	budget := sc.RTTs
	landmarkSel := pastry.FuncSelector(func(self *pastry.Node, _, _ int, cands []*pastry.Node) *pastry.Node {
		svec := index.VectorOf(self.Host)
		if svec == nil || len(cands) == 0 {
			if len(cands) == 0 {
				return nil
			}
			return cands[0]
		}
		// Rank by landmark distance (the soft-state map ordering), then
		// probe the top candidates.
		ranked := append([]*pastry.Node(nil), cands...)
		landmark.Rank(ranked, svec,
			func(n *pastry.Node) landmark.Vector { return index.VectorOf(n.Host) },
			func(n *pastry.Node) topology.NodeID { return n.Host }, nil)
		best, _, _ := landmark.ProbeBest(ranked, budget, func(c *pastry.Node) (float64, float64, bool) {
			rtt := env.ProbeRTT(self.Host, c.Host)
			return rtt, rtt, true
		}, nil)
		if best < 0 {
			return nil
		}
		return ranked[best]
	})
	oracleSel := pastry.FuncSelector(func(self *pastry.Node, _, _ int, cands []*pastry.Node) *pastry.Node {
		var best *pastry.Node
		bestD := 0.0
		for _, c := range cands {
			d := env.Latency(self.Host, c.Host)
			if best == nil || d < bestD {
				best, bestD = c, d
			}
		}
		return best
	})

	t := &Table{
		ID: "ext-pastry",
		Title: fmt.Sprintf("Proximity-neighbor selection on Pastry (b=4, N=%d, budget=%d probes)",
			sc.OverlayN, budget),
		Columns: []string{"selector", "stretch"},
	}
	// One unit per selector: each unit builds its own ring (the join and
	// pair streams are fresh per unit) and only reads the shared index/env.
	configs := []struct {
		name string
		sel  pastry.Selector
	}{
		{"random", pastry.RandomSelector{RNG: simrand.New(sc.Seed).Split("extpastry/rand")}},
		{fmt.Sprintf("landmark+rtt (%d probes)", budget), landmarkSel},
		{"optimal (oracle)", oracleSel},
	}
	stretches, err := engine.Map(len(configs), func(i int) (float64, error) {
		o, err := build(configs[i].sel)
		if err != nil {
			return 0, err
		}
		return stretchOf(o)
	})
	if err != nil {
		return nil, err
	}
	for i, cfg := range configs {
		t.AddRowf(cfg.name, stretches[i])
	}
	t.Note("conclusion: 'the techniques are generic for overlay networks such as Pastry, Chord, and ecan'")
	t.Note("the identical landmark machinery that drives eCAN fills Pastry's routing tables")
	return []*Table{t}, nil
}
