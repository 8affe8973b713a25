package experiment

import (
	"fmt"
	"slices"

	"gsso/internal/core"
	"gsso/internal/ecan"
	"gsso/internal/experiment/engine"
	"gsso/internal/simrand"
	"gsso/internal/softstate"
)

// runStretchFig is the engine behind Figures 10-13: routing stretch of the
// global-soft-state overlay as a function of the per-selection RTT budget,
// for several landmark counts, against the oracle-optimal selection.
//
// The unit of parallelism is one landmark count (one table column): each
// unit owns its stack outright — eCAN overlays cache routing entries
// during measurement, so a stack must never be shared between concurrent
// units — and walks the RTT axis sequentially. Every seed stream derives
// from (sc.Seed, figure, landmark count, rtts), never from scheduling, and
// SetSelector clears cached entries before each measurement, so cell
// values are independent of both the walk order and the worker count.
func runStretchFig(id string, kind TopoKind, lat LatKind, sc Scale) ([]*Table, error) {
	net, err := buildNet(kind, lat, sc)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: id,
		Title: fmt.Sprintf("Routing stretch vs #RTTs (%s, %s latencies, N=%d)",
			kind, lat, sc.OverlayN),
	}
	t.Columns = append(t.Columns, "rtts")
	for _, lm := range sc.LandmarkSweep {
		t.Columns = append(t.Columns, fmt.Sprintf("landmarks=%d", lm))
	}
	t.Columns = append(t.Columns, "optimal")

	// column i holds the stretch for landmark count i at every RTT budget;
	// unit 0 additionally measures the landmark-independent oracle column
	// (the oracle is insensitive to the landmark system, so measuring it on
	// the first stack matches the paper's methodology).
	type column struct {
		cells   []float64
		optimal float64
	}
	cols, err := engine.Map(len(sc.LandmarkSweep), func(i int) (column, error) {
		lm := sc.LandmarkSweep[i]
		sys, err := newStack(net, sc, fmt.Sprintf("%s/lm%d", id, lm), id, sc.OverlayN, lm,
			core.WithMaxReturn(max(32, slices.Max(sc.RTTSweep))))
		if err != nil {
			return column{}, err
		}
		// The same measurement pairs throughout for comparability; the
		// pair stream depends only on the figure's label, so every column
		// samples the identical host-pair sequence over its own overlay.
		pairs := samplePairs(sys.Overlay(), sc.QueriesFor(sc.OverlayN),
			simrand.New(sc.Seed).Split(id+"/pairs"))
		col := column{cells: make([]float64, len(sc.RTTSweep))}
		if i == 0 {
			col.optimal, err = stretchWithSelector(sys, ecan.ClosestSelector{Env: sys.Env()}, pairs)
			if err != nil {
				return column{}, err
			}
		}
		for j, rtts := range sc.RTTSweep {
			sel, err := softstate.NewSelector(sys.Store(), rtts,
				ecan.RandomSelector{RNG: simrand.New(sc.Seed).Split(fmt.Sprintf("%s/fb/%d/%d", id, i, rtts))})
			if err != nil {
				return column{}, err
			}
			s, err := stretchWithSelector(sys, sel, pairs)
			if err != nil {
				return column{}, err
			}
			col.cells[j] = s
		}
		return col, nil
	})
	if err != nil {
		return nil, err
	}

	for j, rtts := range sc.RTTSweep {
		row := []interface{}{rtts}
		for i := range sc.LandmarkSweep {
			row = append(row, cols[i].cells[j])
		}
		row = append(row, cols[0].optimal)
		t.AddRowf(row...)
	}
	t.Note("optimal = oracle closest-in-region selection (infinite RTT budget)")
	t.Note("paper: stretch falls toward optimal as RTT budget grows; more landmarks help most with regular (manual) latencies and large transits")
	return []*Table{t}, nil
}

// RunFig10 reproduces Figure 10 (tsk-large, GT-ITM latencies).
func RunFig10(sc Scale) ([]*Table, error) { return runStretchFig("fig10", TSKLarge, LatGTITM, sc) }

// RunFig11 reproduces Figure 11 (tsk-large, manual latencies).
func RunFig11(sc Scale) ([]*Table, error) { return runStretchFig("fig11", TSKLarge, LatManual, sc) }

// RunFig12 reproduces Figure 12 (tsk-small, GT-ITM latencies).
func RunFig12(sc Scale) ([]*Table, error) { return runStretchFig("fig12", TSKSmall, LatGTITM, sc) }

// RunFig13 reproduces Figure 13 (tsk-small, manual latencies).
func RunFig13(sc Scale) ([]*Table, error) { return runStretchFig("fig13", TSKSmall, LatManual, sc) }

// runSizeFig is the engine behind Figures 14-15: stretch vs overlay size,
// global-soft-state selection against random neighbor selection, on both
// topologies, at the default landmark count and RTT budget. One unit per
// (overlay size, topology) cell; each unit builds its own stack.
func runSizeFig(id string, lat LatKind, sc Scale) ([]*Table, error) {
	t := &Table{
		ID: id,
		Title: fmt.Sprintf("Routing stretch vs overlay size (%s latencies, landmarks=%d, rtts=%d)",
			lat, sc.Landmarks, sc.RTTs),
		Columns: []string{"nodes", "large transit", "small transit",
			"large transit (random)", "small transit (random)"},
	}
	kinds := []TopoKind{TSKLarge, TSKSmall}
	type cell struct{ global, random float64 }
	cells, err := engine.Map(len(sc.OverlaySweep)*len(kinds), func(u int) (cell, error) {
		n, kind := sc.OverlaySweep[u/len(kinds)], kinds[u%len(kinds)]
		net, err := buildNet(kind, lat, sc)
		if err != nil {
			return cell{}, err
		}
		sys, err := newStack(net, sc, fmt.Sprintf("%s/%s/%d", id, kind, n), id, n, sc.Landmarks)
		if err != nil {
			return cell{}, err
		}
		pairs := samplePairs(sys.Overlay(), sc.QueriesFor(n),
			simrand.New(sc.Seed).Split(fmt.Sprintf("%s/pairs/%s/%d", id, kind, n)))
		sel, err := softstate.NewSelector(sys.Store(), sc.RTTs,
			ecan.RandomSelector{RNG: simrand.New(sc.Seed).Split(id + "/fb")})
		if err != nil {
			return cell{}, err
		}
		gs, err := stretchWithSelector(sys, sel, pairs)
		if err != nil {
			return cell{}, err
		}
		rnd, err := stretchWithSelector(sys,
			ecan.RandomSelector{RNG: simrand.New(sc.Seed).Split(id + "/rand")}, pairs)
		if err != nil {
			return cell{}, err
		}
		return cell{global: gs, random: rnd}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, n := range sc.OverlaySweep {
		large, small := cells[i*len(kinds)], cells[i*len(kinds)+1]
		t.AddRowf(n, large.global, small.global, large.random, small.random)
	}
	t.Note("paper: global state with landmark clustering improves stretch ~15-45%% over random neighbor selection")
	t.Note("paper: the improvement is larger for small-transit/large-stub topologies")
	return []*Table{t}, nil
}

// RunFig14 reproduces Figure 14 (GT-ITM latencies).
func RunFig14(sc Scale) ([]*Table, error) { return runSizeFig("fig14", LatGTITM, sc) }

// RunFig15 reproduces Figure 15 (manual latencies).
func RunFig15(sc Scale) ([]*Table, error) { return runSizeFig("fig15", LatManual, sc) }

// RunFig16 reproduces Figure 16: the effect of the map condense/reduction
// rate on map entries per hosting node and on routing stretch. One unit
// per condense depth.
func RunFig16(sc Scale) ([]*Table, error) {
	net, err := buildNet(TSKLarge, LatManual, sc)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "fig16",
		Title: fmt.Sprintf("Map condense rate (tsk-large, manual latencies, N=%d)", sc.OverlayN),
		Columns: []string{"reduction rate", "entries/node (mean)", "entries/node (max)",
			"map owners", "stretch"},
	}
	type row struct {
		mean    float64
		maxC    int
		owners  int
		stretch float64
	}
	rows, err := engine.Map(len(sc.CondenseSweep), func(i int) (row, error) {
		depth := sc.CondenseSweep[i]
		sys, err := newStack(net, sc, fmt.Sprintf("fig16/c%d", depth), "fig16", sc.OverlayN, sc.Landmarks,
			core.WithCondenseDepth(depth))
		if err != nil {
			return row{}, err
		}
		counts := sys.Store().EntriesPerOwner()
		total, maxC := 0, 0
		for _, c := range counts {
			total += c
			if c > maxC {
				maxC = c
			}
		}
		mean := 0.0
		if len(counts) > 0 {
			mean = float64(total) / float64(len(counts))
		}
		pairs := samplePairs(sys.Overlay(), sc.QueriesFor(sc.OverlayN),
			simrand.New(sc.Seed).Split(fmt.Sprintf("fig16/pairs/%d", depth)))
		sel, err := softstate.NewSelector(sys.Store(), sc.RTTs,
			ecan.RandomSelector{RNG: simrand.New(sc.Seed).Split("fig16/fb")})
		if err != nil {
			return row{}, err
		}
		s, err := stretchWithSelector(sys, sel, pairs)
		if err != nil {
			return row{}, err
		}
		return row{mean: mean, maxC: maxC, owners: len(counts), stretch: s}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, depth := range sc.CondenseSweep {
		r := rows[i]
		t.AddRowf(1<<uint(depth), r.mean, r.maxC, r.owners, r.stretch)
	}
	t.Note("reduction rate 2^d condenses each region's map into 1/2^d of the region")
	t.Note("paper: stretch is insensitive to the rate as long as tens of entries per node remain")
	return []*Table{t}, nil
}
