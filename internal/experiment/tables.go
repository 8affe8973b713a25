package experiment

import (
	"fmt"

	"gsso/internal/hilbert"
	"gsso/internal/landmark"
	"gsso/internal/softstate"
)

// RunTab1 reproduces Table 1 as a traced walkthrough: the procedure for
// locating the closest node in a zone, executed step by step on a live
// stack, with the paper's pseudocode line next to what actually happened.
func RunTab1(sc Scale) ([]*Table, error) {
	net, err := buildNet(TSKLarge, LatGTITM, sc)
	if err != nil {
		return nil, err
	}
	sys, err := newStack(net, sc, "tab1", "tab1", sc.OverlayN, sc.Landmarks)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "tab1",
		Title:   "Procedure for locating the closest node in a zone (traced)",
		Columns: []string{"step", "paper", "this run"},
	}
	store := sys.Store()
	x := sys.Members()[0]
	region := x.Path().Prefix(sys.Overlay().DigitLen())
	vec := store.Vector(x)
	num, _ := store.Number(x)
	t.AddRowf(1, "let px be x's position in the landmark space",
		fmt.Sprintf("landmark vector of %d dims, number=%d", len(vec), num))
	owner := store.OwnerOf(region, num)
	t.AddRowf(2, "map px to px' in Z",
		fmt.Sprintf("placement inside region %s -> owner host %d", region, owner.Host))
	entries, cost, err := store.Lookup(region, vec)
	if err != nil {
		return nil, err
	}
	t.AddRowf(3, "route to the node y in Z that owns px'",
		fmt.Sprintf("%d overlay messages", cost.RouteMessages))
	t.AddRowf(4, "if y's map content is not empty, return map content",
		fmt.Sprintf("%d candidates returned (%d expand hops)", len(entries), cost.ExpandHops))
	t.AddRowf(5, "define a TTL to search outside y's map content range",
		fmt.Sprintf("expand budget %d shards", store.Config().ExpandBudget))
	best := "no candidates"
	// Budget = all: the requester probes every candidate but itself.
	if _, bestRTT, probed := landmark.ProbeBest(entries, len(entries), func(e *softstate.Entry) (float64, float64, bool) {
		if e.Member == x {
			return 0, 0, false
		}
		r := sys.Env().ProbeRTT(x.Host, e.Host)
		return r, r, true
	}, nil); probed > 0 {
		best = fmt.Sprintf("probed %d candidates, best RTT %.2f ms", probed, bestRTT)
	}
	t.AddRowf(6, "requester RTT-probes the returned candidates", best)
	return []*Table{t}, nil
}

// RunTab2 reproduces Table 2: the experiment parameters with their
// defaults and ranges, as actually used by this reproduction at the given
// scale.
func RunTab2(sc Scale) ([]*Table, error) {
	t := &Table{
		ID:      "tab2",
		Title:   fmt.Sprintf("Experiment parameters (%s scale)", sc.Name),
		Columns: []string{"parameter", "default", "range"},
	}
	t.AddRowf("# nodes (overlay)", sc.OverlayN,
		fmt.Sprintf("%d - %d", sc.OverlaySweep[0], sc.OverlaySweep[len(sc.OverlaySweep)-1]))
	t.AddRowf("# landmarks", sc.Landmarks,
		fmt.Sprintf("%d - %d", sc.LandmarkSweep[0], sc.LandmarkSweep[len(sc.LandmarkSweep)-1]))
	t.AddRowf("# RTT measurements", sc.RTTs,
		fmt.Sprintf("%d - %d", sc.RTTSweep[0], sc.RTTSweep[len(sc.RTTSweep)-1]))
	t.AddRowf("map condense rate", 1,
		fmt.Sprintf("%d - %d", 1<<uint(sc.CondenseSweep[0]), 1<<uint(sc.CondenseSweep[len(sc.CondenseSweep)-1])))
	t.Note("paper's Table 2 defaults/ranges are OCR-damaged; these are the DESIGN.md §3 reconstructions")
	return []*Table{t}, nil
}

// RunFigB reproduces the appendix worked example (Figure 17): landmark
// numbers assigned by walking a 2-d landmark-space grid with the Hilbert
// curve, demonstrating that consecutive numbers are adjacent cells.
func RunFigB(sc Scale) ([]*Table, error) {
	curve, err := hilbert.New(2, 2) // 4x4 grid, numbers 0-15, as in the figure
	if err != nil {
		return nil, err
	}
	grid := &Table{
		ID:      "figB",
		Title:   "Appendix: Hilbert landmark numbering of a 4x4 landmark-space grid",
		Columns: []string{"y\\x", "0", "1", "2", "3"},
	}
	for y := uint32(0); y < 4; y++ {
		row := []interface{}{fmt.Sprintf("%d", y)}
		for x := uint32(0); x < 4; x++ {
			n, err := curve.Encode([]uint32{x, y})
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%d", n))
		}
		grid.AddRowf(row...)
	}
	grid.Note("consecutive landmark numbers always occupy adjacent grid cells (Hilbert property)")

	walk := &Table{
		ID:      "figB-walk",
		Title:   "The curve walk: number -> cell",
		Columns: []string{"number", "cell (x,y)", "L1 step from previous"},
	}
	var prev []uint32
	for n := uint64(0); n <= curve.MaxIndex(); n++ {
		cell, err := curve.Decode(n)
		if err != nil {
			return nil, err
		}
		step := "-"
		if prev != nil {
			d := 0
			for i := range cell {
				di := int(cell[i]) - int(prev[i])
				if di < 0 {
					di = -di
				}
				d += di
			}
			step = fmt.Sprintf("%d", d)
		}
		walk.AddRowf(int(n), fmt.Sprintf("(%d,%d)", cell[0], cell[1]), step)
		prev = cell
	}
	_ = sc // the worked example has a fixed size
	return []*Table{grid, walk}, nil
}
