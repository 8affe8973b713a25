package experiment

import (
	"math"

	"gsso/internal/experiment/engine"
	"gsso/internal/netsim"
	"gsso/internal/proximity"
	"gsso/internal/topology"
)

// nnHarness is the shared setup of Figures 3-6: every stub host of the
// topology participates, indexed both by landmark position (for the
// hybrid) and as a full-population 2-d CAN (for expanding-ring search).
// The expensive immutable core (topology, landmark matrix, CAN, query
// set) is cached process-wide and shared across the four figures; the
// harness wraps it with a per-experiment Env so probe accounting stays
// attributed to the figure doing the measuring.
type nnHarness struct {
	*nnCore
	env *netsim.Env
}

func buildNNHarness(kind TopoKind, sc Scale, run string) (*nnHarness, error) {
	core, err := sharedNNCore(kind, sc)
	if err != nil {
		return nil, err
	}
	return &nnHarness{nnCore: core, env: netsim.NewRun(core.net, run)}, nil
}

// meanStretch averages one search's stretch at a probe budget over the
// query set.
func (h *nnHarness) meanStretch(search func(*netsim.Env, topology.NodeID, int) proximity.Result, budget int) float64 {
	return meanNNStretch(h.net, h.hosts, h.queries, func(qi int) topology.NodeID {
		return search(h.env, h.hosts[qi], budget).Found
	})
}

// meanNNStretch scores a nearest-neighbor search the way Figures 3-6 do:
// for each query hosts[qi], in query order, the stretch of find(qi)
// against the true nearest other member of hosts. A query whose stretch
// is +Inf (the search found nothing) is skipped; with none left the mean
// is +Inf.
func meanNNStretch(net *topology.Network, hosts []topology.NodeID, queries []int, find func(qi int) topology.NodeID) float64 {
	total, n := 0.0, 0
	for _, qi := range queries {
		s := proximity.Stretch(net, hosts[qi], find(qi), hosts)
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

// RunFig3 reproduces Figure 3: nearest-neighbor stretch of ERS vs the
// hybrid landmark+RTT scheme on tsk-large, over small probe budgets. The
// hill-climbing heuristic the paper dismisses for its local-minimum
// pitfalls is included as a third series. One unit per budget: every
// search is a read-only walk over the shared index, so budgets measure
// concurrently without affecting each other's results.
func RunFig3(sc Scale) ([]*Table, error) {
	h, err := buildNNHarness(TSKLarge, sc, "fig3")
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig3",
		Title:   "Nearest-neighbor stretch vs #RTT probes (tsk-large): ERS vs hybrid",
		Columns: []string{"rtts", "ERS", "hillclimb", "lmk+rtt"},
	}
	rows, err := engine.Map(len(sc.RTTSweep), func(i int) ([3]float64, error) {
		b := sc.RTTSweep[i]
		return [3]float64{
			h.meanStretch(h.ers.Search, b),
			h.meanStretch(h.ers.SearchHillClimb, b),
			h.meanStretch(h.index.SearchHybrid, b),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, b := range sc.RTTSweep {
		t.AddRowf(b, rows[i][0], rows[i][1], rows[i][2])
	}
	t.Note("budget 1 on the lmk+rtt series is landmark clustering alone")
	t.Note("hillclimb: greedy descent over overlay neighbors — plateaus at local minima (§1's critique)")
	t.Note("paper: hybrid approaches stretch 1 with a medium number of probes; ERS stays far above")
	return []*Table{t}, nil
}

// RunFig4 reproduces Figure 4: ERS alone on tsk-large with probe budgets
// into the thousands, showing how many nodes blind flooding must test.
func RunFig4(sc Scale) ([]*Table, error) {
	h, err := buildNNHarness(TSKLarge, sc, "fig4")
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig4",
		Title:   "Expanding-ring search on tsk-large: stretch vs #RTT probes",
		Columns: []string{"rtts", "ERS"},
	}
	rows, err := engine.Map(len(sc.ERSSweep), func(i int) (float64, error) {
		return h.meanStretch(h.ers.Search, sc.ERSSweep[i]), nil
	})
	if err != nil {
		return nil, err
	}
	for i, b := range sc.ERSSweep {
		t.AddRowf(b, rows[i])
	}
	t.Note("paper: ERS 'is not effective unless a large number (thousands) of nodes have been tested'")
	return []*Table{t}, nil
}

// RunFig5 reproduces Figure 5: the hybrid on tsk-small. Dense stubs defeat
// landmark resolution, so more probes are needed than on tsk-large.
func RunFig5(sc Scale) ([]*Table, error) {
	h, err := buildNNHarness(TSKSmall, sc, "fig5")
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig5",
		Title:   "Hybrid landmark+RTT on tsk-small: stretch vs #RTT probes",
		Columns: []string{"rtts", "lmk+rtt"},
	}
	budgets := append([]int(nil), sc.RTTSweep...)
	last := budgets[len(budgets)-1]
	budgets = append(budgets, 2*last, 3*last) // the paper pushes to ~90 probes here
	rows, err := engine.Map(len(budgets), func(i int) (float64, error) {
		return h.meanStretch(h.index.SearchHybrid, budgets[i]), nil
	})
	if err != nil {
		return nil, err
	}
	for i, b := range budgets {
		t.AddRowf(b, rows[i])
	}
	t.Note("paper: on tsk-small even the hybrid must test more nodes — landmarks cannot differentiate close-by stub nodes")
	return []*Table{t}, nil
}

// RunFig6 reproduces Figure 6: ERS alone on tsk-small.
func RunFig6(sc Scale) ([]*Table, error) {
	h, err := buildNNHarness(TSKSmall, sc, "fig6")
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig6",
		Title:   "Expanding-ring search on tsk-small: stretch vs #RTT probes",
		Columns: []string{"rtts", "ERS"},
	}
	rows, err := engine.Map(len(sc.ERSSweep), func(i int) (float64, error) {
		return h.meanStretch(h.ers.Search, sc.ERSSweep[i]), nil
	})
	if err != nil {
		return nil, err
	}
	for i, b := range sc.ERSSweep {
		t.AddRowf(b, rows[i])
	}
	return []*Table{t}, nil
}
