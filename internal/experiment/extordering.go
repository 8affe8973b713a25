package experiment

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"gsso/internal/experiment/engine"
	"gsso/internal/landmark"
	"gsso/internal/netsim"
	"gsso/internal/proximity"
	"gsso/internal/simrand"
	"gsso/internal/topology"
)

// RunExtOrdering measures the landmark-ordering baseline of §2
// (Topologically-Aware CAN's clustering key): nodes sorting the landmarks
// identically by RTT are considered "close". The paper's critique —
// "this technique cannot differentiate nodes with same landmark orders" —
// becomes quantitative: the ordering clusters are large, a random pick
// inside one is far from the true nearest, and the paper's own
// vector+RTT hybrid beats it soundly at the same probe budget.
func RunExtOrdering(sc Scale) ([]*Table, error) {
	net, err := buildNet(TSKSmall, LatGTITM, sc) // dense stubs: ordering's worst case
	if err != nil {
		return nil, err
	}
	env := netsim.NewRun(net, "ext-ordering")
	rng := simrand.New(sc.Seed).Split("extordering")
	hosts := net.StubHosts()

	space, err := landmark.Calibrate(net, sc.Landmarks, rng.Split("lm"), rng.Split("est"))
	if err != nil {
		return nil, err
	}
	index, err := proximity.BuildIndex(env, space, hosts)
	if err != nil {
		return nil, err
	}

	// Cluster hosts by landmark ordering.
	orderKey := func(h topology.NodeID) string {
		ord := index.VectorOf(h).Ordering()
		parts := make([]string, len(ord))
		for i, o := range ord {
			parts[i] = fmt.Sprint(o)
		}
		return strings.Join(parts, ",")
	}
	clusters := make(map[string][]topology.NodeID)
	for _, h := range hosts {
		k := orderKey(h)
		clusters[k] = append(clusters[k], h)
	}
	var sizes []float64
	for _, members := range clusters {
		sizes = append(sizes, float64(len(members)))
	}

	qRNG := rng.Split("queries")
	qIdx := qRNG.Sample(len(hosts), sc.NNQueries)
	pickRNG := rng.Split("pick")

	meanOf := func(find func(q topology.NodeID) topology.NodeID) float64 {
		total, n := 0.0, 0
		for _, qi := range qIdx {
			q := hosts[qi]
			found := find(q)
			s := proximity.Stretch(net, q, found, hosts)
			if math.IsInf(s, 1) {
				continue
			}
			total += s
			n++
		}
		if n == 0 {
			return math.Inf(1)
		}
		return total / float64(n)
	}

	// Three units, one per technique. The ordering unit owns pickRNG (its
	// stream is consumed sequentially inside the unit); the two hybrid
	// units are read-only index searches.
	measurements := []func() float64{
		func() float64 {
			return meanOf(func(q topology.NodeID) topology.NodeID {
				cluster := clusters[orderKey(q)]
				// A random other member of the same ordering cluster;
				// clusters of one fall back to a uniformly random host (the
				// technique has nothing to say about them).
				for attempt := 0; attempt < 8; attempt++ {
					var pick topology.NodeID
					if len(cluster) > 1 {
						pick = cluster[pickRNG.Intn(len(cluster))]
					} else {
						pick = hosts[pickRNG.Intn(len(hosts))]
					}
					if pick != q {
						env.ProbeRTT(q, pick) // the single confirmation probe
						return pick
					}
				}
				return topology.None
			})
		},
		func() float64 {
			return meanOf(func(q topology.NodeID) topology.NodeID {
				return index.SearchHybrid(env, q, 1).Found
			})
		},
		func() float64 {
			return meanOf(func(q topology.NodeID) topology.NodeID {
				return index.SearchHybrid(env, q, sc.RTTs).Found
			})
		},
	}
	stretches, err := engine.Map(len(measurements), func(i int) (float64, error) {
		return measurements[i](), nil
	})
	if err != nil {
		return nil, err
	}
	orderingStretch, vectorStretch, hybridStretch := stretches[0], stretches[1], stretches[2]

	t := &Table{
		ID:      "ext-ordering",
		Title:   fmt.Sprintf("Landmark ordering vs vector ranking (tsk-small, %d landmarks)", sc.Landmarks),
		Columns: []string{"technique", "probes", "nearest-neighbor stretch"},
	}
	t.AddRowf("ordering cluster, random pick", 1, orderingStretch)
	t.AddRowf("vector ranking, top candidate", 1, vectorStretch)
	t.AddRowf(fmt.Sprintf("hybrid (top %d probed)", sc.RTTs), sc.RTTs, hybridStretch)
	t.Note(fmt.Sprintf("ordering clusters: %d distinct orders over %d hosts, largest %v, mean %.1f",
		len(clusters), len(hosts), int(slices.Max(sizes)), meanFloat(sizes)))
	t.Note("paper §2: landmark ordering 'cannot differentiate nodes with same landmark orders'")
	return []*Table{t}, nil
}

func meanFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
