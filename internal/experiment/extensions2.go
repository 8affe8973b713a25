package experiment

import (
	"fmt"
	"math"
	"sort"

	"gsso/internal/can"
	"gsso/internal/experiment/engine"
	"gsso/internal/landmark"
	"gsso/internal/netsim"
	"gsso/internal/proximity"
	"gsso/internal/simrand"
	"gsso/internal/topology"
)

// RunExtTACAN quantifies the §1 motivation for NOT constraining overlay
// layout by topology: in a Topologically-Aware CAN, nodes join at points
// derived from their landmark positions, so physically clustered nodes
// crowd one corner of the Cartesian space. The experiment compares the
// resulting zone-volume skew and neighbor-set sizes against a uniform
// CAN ("a small fraction of nodes can occupy most of the space, and some
// nodes have to maintain very many neighbors").
func RunExtTACAN(sc Scale) ([]*Table, error) {
	net, err := buildNet(TSKLarge, LatGTITM, sc)
	if err != nil {
		return nil, err
	}
	env := netsim.NewRun(net, "ext-tacan")
	rng := simrand.New(sc.Seed).Split("exttacan")
	hosts := net.RandomStubHosts(rng.Split("hosts"), sc.OverlayN)
	set, err := landmark.Choose(net, sc.Landmarks, rng.Split("lm"))
	if err != nil {
		return nil, err
	}
	maxRTT := landmark.EstimateMaxRTT(net, set, net.RandomStubHosts(rng.Split("est"), 32))

	// The point streams are pre-split so the two concurrent builds below
	// never touch the parent source.
	ptRNGs := map[bool]*simrand.Source{
		false: rng.Split("pts/false"),
		true:  rng.Split("pts/true"),
	}
	build := func(topoAware bool) (*can.Overlay, error) {
		overlay, err := can.New(2)
		if err != nil {
			return nil, err
		}
		ptRNG := ptRNGs[topoAware]
		for _, h := range hosts {
			var p can.Point
			if topoAware {
				vec := landmark.Measure(env, h, set)
				p = can.Point{clampUnit(vec[0] / maxRTT), clampUnit(vec[1] / maxRTT)}
			} else {
				p = can.RandomPoint(2, ptRNG)
			}
			if _, err := overlay.Join(h, p); err != nil {
				return nil, err
			}
		}
		return overlay, nil
	}

	profile := func(o *can.Overlay) (top10Volume float64, maxNeighbors int, meanNeighbors float64) {
		members := o.Members()
		vols := make([]float64, len(members))
		totalNb := 0
		for i, m := range members {
			vols[i] = m.Volume()
			nb := m.NeighborCount()
			totalNb += nb
			if nb > maxNeighbors {
				maxNeighbors = nb
			}
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(vols)))
		top := len(vols) / 10
		if top < 1 {
			top = 1
		}
		for _, v := range vols[:top] {
			top10Volume += v
		}
		meanNeighbors = float64(totalNb) / float64(len(members))
		return top10Volume, maxNeighbors, meanNeighbors
	}

	t := &Table{
		ID:    "ext-tacan",
		Title: fmt.Sprintf("Topologically-Aware CAN imbalance (§1, N=%d)", sc.OverlayN),
		Columns: []string{"layout", "space held by largest 10% of zones",
			"max neighbors", "mean neighbors"},
	}
	// Two units, one per layout; the topology-aware build pays the
	// landmark measurements, the uniform build is pure RNG.
	layouts := []struct {
		name      string
		topoAware bool
	}{{"uniform CAN", false}, {"topologically-aware CAN", true}}
	overlays, err := engine.Map(len(layouts), func(i int) (*can.Overlay, error) {
		return build(layouts[i].topoAware)
	})
	if err != nil {
		return nil, err
	}
	for i, layout := range layouts {
		v, maxNb, meanNb := profile(overlays[i])
		t.AddRowf(layout.name, fmt.Sprintf("%.1f%%", 100*v), maxNb, meanNb)
	}
	t.Note("paper §1: in a topology-aware CAN a small fraction of nodes can occupy 80-98%% of the space")
	t.Note("the skew is why the paper keeps the overlay uniform and moves proximity into soft-state instead")
	return []*Table{t}, nil
}

func clampUnit(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v >= 1 {
		return math.Nextafter(1, 0)
	}
	return v
}

// RunExtGroups evaluates the first §5.4 optimization: splitting the
// landmarks into groups with one space-filling curve each, and unioning
// the per-group curve windows before the full-vector ranking, to reduce
// false clustering. Measured as nearest-neighbor stretch at a fixed probe
// budget on the hard (tsk-small) topology.
func RunExtGroups(sc Scale) ([]*Table, error) {
	// Manual latencies make landmark geometry most informative, matching
	// the paper's observation that regular latencies benefit most.
	net, err := buildNet(TSKSmall, LatManual, sc)
	if err != nil {
		return nil, err
	}
	env := netsim.NewRun(net, "ext-groups")
	rng := simrand.New(sc.Seed).Split("extgroups")
	hosts := net.StubHosts()
	// Twice the default landmark count so groups stay meaningful.
	set, err := landmark.Choose(net, 2*sc.Landmarks, rng.Split("lm"))
	if err != nil {
		return nil, err
	}
	maxRTT := landmark.EstimateMaxRTT(net, set, net.RandomStubHosts(rng.Split("est"), 32))

	queries := rng.Split("queries").Sample(len(hosts), sc.NNQueries)
	budget := sc.RTTs

	t := &Table{
		ID:      "ext-groups",
		Title:   fmt.Sprintf("Landmark groups (§5.4 optimization 1), tsk-small, budget=%d probes", budget),
		Columns: []string{"groups", "nearest-neighbor stretch"},
	}
	// One unit per group count: index builds probe through the shared env
	// (atomic meters), searches are read-only.
	groupCounts := []int{1, 2, 3}
	stretches, err := engine.Map(len(groupCounts), func(i int) (float64, error) {
		gi, err := proximity.BuildGroupedIndex(env, set, groupCounts[i], 6, maxRTT, hosts)
		if err != nil {
			return 0, err
		}
		return meanNNStretch(net, hosts, queries, func(qi int) topology.NodeID {
			return gi.SearchHybrid(env, hosts[qi], budget).Found
		}), nil
	})
	if err != nil {
		return nil, err
	}
	for i, groups := range groupCounts {
		t.AddRowf(groups, stretches[i])
	}
	t.Note("groups=1 is the baseline single-curve reduction")
	t.Note("paper §5.4: joining positions from several landmark groups reduces false clustering")
	return []*Table{t}, nil
}

// RunExtHier evaluates the second §5.4 optimization: hierarchical
// landmark spaces. A handful of widely scattered global landmarks
// pre-select; localized per-domain landmarks refine. Measured as
// nearest-neighbor stretch on the hard (tsk-small) topology, against a
// flat index given the same total landmark budget.
func RunExtHier(sc Scale) ([]*Table, error) {
	net, err := buildNet(TSKSmall, LatManual, sc)
	if err != nil {
		return nil, err
	}
	env := netsim.NewRun(net, "ext-hier")
	rng := simrand.New(sc.Seed).Split("exthier")
	hosts := net.StubHosts()

	globalCount := 5
	perDomain := 3
	globalSpace, err := landmark.Calibrate(net, globalCount, rng.Split("global"), rng.Split("est"))
	if err != nil {
		return nil, err
	}
	localSet, err := landmark.ChoosePerDomain(net, perDomain, rng.Split("local"))
	if err != nil {
		return nil, err
	}
	hx, err := proximity.BuildHierarchicalIndex(env, globalSpace, localSet, hosts)
	if err != nil {
		return nil, err
	}
	// The flat comparator gets the same total landmark budget in one set.
	flatSet, err := landmark.Choose(net, globalCount+localSet.Len(), rng.Split("flat"))
	if err != nil {
		return nil, err
	}
	flatSpace, err := landmark.NewSpace(flatSet, 3, 6, globalSpace.MaxRTT())
	if err != nil {
		return nil, err
	}
	flat, err := proximity.BuildIndex(env, flatSpace, hosts)
	if err != nil {
		return nil, err
	}

	queries := rng.Split("queries").Sample(len(hosts), sc.NNQueries)
	budget := sc.RTTs

	t := &Table{
		ID: "ext-hier",
		Title: fmt.Sprintf("Hierarchical landmark spaces (§5.4 optimization 2), tsk-small, budget=%d probes",
			budget),
		Columns: []string{"method", "landmarks", "nearest-neighbor stretch"},
	}
	// The index builds above are sequential (the local and flat stages
	// derive from the global maxRTT); the three measurements are read-only
	// and run as units.
	searches := []func(*netsim.Env, topology.NodeID, int) proximity.Result{
		hx.GlobalOnly().SearchHybrid, flat.SearchHybrid, hx.SearchHybrid,
	}
	stretches, err := engine.Map(len(searches), func(i int) (float64, error) {
		return meanNNStretch(net, hosts, queries, func(qi int) topology.NodeID {
			return searches[i](env, hosts[qi], budget).Found
		}), nil
	})
	if err != nil {
		return nil, err
	}
	t.AddRowf("global only", globalCount, stretches[0])
	t.AddRowf("flat, same total", flatSet.Len(), stretches[1])
	t.AddRowf(fmt.Sprintf("hierarchical %d+%d", globalCount, localSet.Len()), hx.JoinProbesPerHost(), stretches[2])
	t.Note("paper §5.4: scattered landmarks pre-select, localized landmarks refine")
	t.Note("measured shape: the hierarchy clearly improves on its own global stage; against an equal-size")
	t.Note("flat set it trails on tsk-small, whose two-domain backbone makes per-domain landmarks barely")
	t.Note("'local' — the idea needs a topology with many distinct regions to pay off (the paper proposes,")
	t.Note("but does not evaluate, this optimization)")
	return []*Table{t}, nil
}
