package experiment

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
)

func quickScale() Scale { return Quick(1) }

// cell parses a numeric table cell.
func cell(t *testing.T, tb *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tb.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric: %v", row, col, tb.Rows[row][col], err)
	}
	return v
}

func TestScaleValidate(t *testing.T) {
	if err := Full(1).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Quick(1).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Quick(1)
	bad.TopoScale = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("bad scale accepted")
	}
	bad2 := Quick(1)
	bad2.RTTSweep = nil
	if err := bad2.Validate(); err == nil {
		t.Fatal("empty sweep accepted")
	}
}

func TestQueriesFor(t *testing.T) {
	sc := Quick(1)
	if got := sc.QueriesFor(100); got != 200 {
		t.Fatalf("QueriesFor(100) = %d", got)
	}
	if got := sc.QueriesFor(100000); got != sc.Queries {
		t.Fatalf("QueriesFor cap broken: %d", got)
	}
	if got := sc.QueriesFor(1); got != 16 {
		t.Fatalf("QueriesFor floor broken: %d", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "x", Title: "demo", Columns: []string{"a", "bb"}}
	tb.AddRow("1")            // short row padded
	tb.AddRow("2", "3", "44") // long row truncated
	tb.AddRowf(7, 1.5, "ignored")
	tb.Note("note %d", 9)
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== x: demo ==", "a", "bb", "# note 9"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	var csvBuf bytes.Buffer
	if err := tb.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csvBuf.String(), "a,bb\n") {
		t.Fatalf("csv header wrong: %q", csvBuf.String())
	}
}

func TestRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
	}
	// Every table and figure of the evaluation must be covered.
	for _, want := range []string{"fig2", "fig3", "fig4", "fig5", "fig6",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"tab1", "tab2", "figB", "ext-load", "ext-pubsub", "ext-chord",
		"ext-tacan", "ext-groups", "ext-hier", "ext-failure", "ext-pastry",
		"ext-svd", "ext-ordering"} {
		if !ids[want] {
			t.Fatalf("experiment %s missing from registry", want)
		}
	}
	if _, ok := ByID("fig2"); !ok {
		t.Fatal("ByID broken")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID found a ghost")
	}
}

func TestFig2Shape(t *testing.T) {
	tables, err := RunFig2(quickScale())
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	ecanCol := len(tb.Columns) - 1
	last := len(tb.Rows) - 1
	// eCAN always beats same-dimensionality CAN (d=2, column 1), at every
	// size. (Against higher-dimensional CANs the paper's crossover only
	// appears at scale, so quick runs assert only the same-d comparison.)
	for r := range tb.Rows {
		if cell(t, tb, r, ecanCol) >= cell(t, tb, r, 1) {
			t.Fatalf("row %d: eCAN (%.2f) not under CAN d=2 (%.2f)",
				r, cell(t, tb, r, ecanCol), cell(t, tb, r, 1))
		}
	}
	// CAN d=2 hops grow with N; eCAN grows much more slowly.
	if cell(t, tb, last, 1) <= cell(t, tb, 0, 1) {
		t.Fatal("CAN d=2 hops did not grow with N")
	}
	canGrowth := cell(t, tb, last, 1) / cell(t, tb, 0, 1)
	ecanGrowth := cell(t, tb, last, ecanCol) / cell(t, tb, 0, ecanCol)
	if ecanGrowth >= canGrowth {
		t.Fatalf("eCAN growth (%.2fx) not slower than CAN (%.2fx)", ecanGrowth, canGrowth)
	}
}

func TestFig3Shape(t *testing.T) {
	tables, err := RunFig3(quickScale())
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	// At the largest small budget, hybrid must beat both ERS and the
	// hill-climbing heuristic decisively.
	last := len(tb.Rows) - 1
	ers, hill, hybrid := cell(t, tb, last, 1), cell(t, tb, last, 2), cell(t, tb, last, 3)
	if hybrid*1.5 >= ers {
		t.Fatalf("hybrid (%.2f) not clearly better than ERS (%.2f)", hybrid, ers)
	}
	if hybrid >= hill {
		t.Fatalf("hybrid (%.2f) not better than hill climbing (%.2f)", hybrid, hill)
	}
	if hybrid > 2.5 {
		t.Fatalf("hybrid stretch %.2f too far from 1", hybrid)
	}
	// Hybrid improves (weakly) from the first to the last budget.
	if cell(t, tb, last, 3) > cell(t, tb, 0, 3) {
		t.Fatal("hybrid did not improve with budget")
	}
	// Hill climbing plateaus: its improvement from mid to last budget is
	// small because it gets stuck in local minima.
	mid := len(tb.Rows) / 2
	if hillMid := cell(t, tb, mid, 2); hill < hillMid*0.5 {
		t.Logf("note: hill climbing improved unusually much: %.2f -> %.2f", hillMid, hill)
	}
}

func TestFig4Shape(t *testing.T) {
	tables, err := RunFig4(quickScale())
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	first, last := cell(t, tb, 0, 1), cell(t, tb, len(tb.Rows)-1, 1)
	if last > first {
		t.Fatalf("ERS got worse with budget: %.2f -> %.2f", first, last)
	}
	// At the largest budget (near-exhaustive at quick scale) ERS is good,
	// demonstrating that it only works after probing ~the whole overlay.
	if last > 1.3 {
		t.Fatalf("near-exhaustive ERS stretch %.2f", last)
	}
}

func TestFig5Fig6SmallTopologyHarder(t *testing.T) {
	sc := quickScale()
	t5, err := RunFig5(sc)
	if err != nil {
		t.Fatal(err)
	}
	t3, err := RunFig3(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Compare the hybrid at the same mid budget: tsk-small is at least as
	// hard as tsk-large (dense stubs defeat the landmarks).
	mid := len(sc.RTTSweep) / 2
	small := cell(t, t5[0], mid, 1)
	large := cell(t, t3[0], mid, 3)
	t.Logf("hybrid stretch at mid budget: tsk-small %.3f, tsk-large %.3f", small, large)
	if small < large*0.7 {
		t.Fatalf("tsk-small (%.2f) unexpectedly much easier than tsk-large (%.2f)", small, large)
	}
	t6, err := RunFig6(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(t6[0].Rows) != len(sc.ERSSweep) {
		t.Fatal("fig6 row count wrong")
	}
}

func TestFig10Shape(t *testing.T) {
	sc := quickScale()
	tables, err := RunFig10(sc)
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	optCol := len(tb.Columns) - 1
	last := len(tb.Rows) - 1
	for r := range tb.Rows {
		for c := 1; c < optCol; c++ {
			if cell(t, tb, r, c) < 1 {
				t.Fatalf("stretch below 1 at row %d col %d", r, c)
			}
		}
	}
	// More RTTs should not hurt (compare max landmark column first/last).
	lmCol := optCol - 1
	if cell(t, tb, last, lmCol) > cell(t, tb, 0, lmCol)*1.05 {
		t.Fatalf("stretch rose with budget: %.3f -> %.3f",
			cell(t, tb, 0, lmCol), cell(t, tb, last, lmCol))
	}
	// At the largest budget, the best landmark series is near optimal.
	opt := cell(t, tb, last, optCol)
	best := cell(t, tb, last, 1)
	for c := 2; c < optCol; c++ {
		if v := cell(t, tb, last, c); v < best {
			best = v
		}
	}
	if best > opt*1.6+0.4 {
		t.Fatalf("best series %.3f too far above optimal %.3f", best, opt)
	}
}

func TestFig14Shape(t *testing.T) {
	tables, err := RunFig14(quickScale())
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	for r := range tb.Rows {
		largeGS, smallGS := cell(t, tb, r, 1), cell(t, tb, r, 2)
		largeRnd, smallRnd := cell(t, tb, r, 3), cell(t, tb, r, 4)
		if largeGS >= largeRnd {
			t.Fatalf("row %d: global state (%.2f) not better than random (%.2f) on tsk-large",
				r, largeGS, largeRnd)
		}
		if smallGS >= smallRnd {
			t.Fatalf("row %d: global state (%.2f) not better than random (%.2f) on tsk-small",
				r, smallGS, smallRnd)
		}
	}
}

func TestFig16Shape(t *testing.T) {
	tables, err := RunFig16(quickScale())
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	first, last := 0, len(tb.Rows)-1
	// Condensing (higher reduction rate) concentrates the maps onto fewer
	// owners with more entries each.
	if cell(t, tb, last, 3) > cell(t, tb, first, 3) {
		t.Fatal("owners grew with reduction rate")
	}
	if cell(t, tb, last, 1) < cell(t, tb, first, 1) {
		t.Fatal("entries/node fell with reduction rate")
	}
	// Stretch stays in a sane band throughout.
	for r := range tb.Rows {
		s := cell(t, tb, r, 4)
		if s < 1 || s > 10 {
			t.Fatalf("stretch %v out of band at row %d", s, r)
		}
	}
}

func TestTab1Trace(t *testing.T) {
	tables, err := RunTab1(quickScale())
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if len(tb.Rows) != 6 {
		t.Fatalf("trace has %d steps", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row[1] == "" || row[2] == "" {
			t.Fatalf("empty trace cell: %v", row)
		}
	}
}

func TestTab2AndFigB(t *testing.T) {
	tabs, err := RunTab2(quickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs[0].Rows) != 4 {
		t.Fatal("tab2 should list 4 parameters")
	}
	figs, err := RunFigB(quickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 {
		t.Fatal("figB should produce grid + walk")
	}
	walk := figs[1]
	if len(walk.Rows) != 16 {
		t.Fatalf("walk rows = %d", len(walk.Rows))
	}
	for r := 1; r < len(walk.Rows); r++ {
		if walk.Rows[r][2] != "1" {
			t.Fatalf("non-adjacent hilbert step at row %d: %v", r, walk.Rows[r])
		}
	}
}

func TestExtLoadShape(t *testing.T) {
	tables, err := RunExtLoad(quickScale())
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Highest alpha should not have higher peak utilization than alpha=0
	// by any meaningful margin.
	peak0 := cell(t, tb, 0, 2)
	peakHi := cell(t, tb, len(tb.Rows)-1, 2)
	t.Logf("peak utilization: alpha=0 %.2f, alpha=4 %.2f", peak0, peakHi)
	if peakHi > peak0*1.15 {
		t.Fatalf("load-aware selection worsened peak: %.2f vs %.2f", peakHi, peak0)
	}
}

func TestExtPubSubShape(t *testing.T) {
	tables, err := RunExtPubSub(quickScale())
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	var stale, poll, ps struct{ last, msgs, sel float64 }
	for r, row := range tb.Rows {
		rec := struct{ last, msgs, sel float64 }{
			cell(t, tb, r, 2), cell(t, tb, r, 3), cell(t, tb, r, 5),
		}
		switch row[0] {
		case "stale":
			stale = rec
		case "poll":
			poll = rec
		case "pubsub":
			ps = rec
		}
	}
	t.Logf("stretch@last: stale %.3f poll %.3f pubsub %.3f; selection probes: %v %v %v",
		stale.last, poll.last, ps.last, stale.sel, poll.sel, ps.sel)
	if poll.sel <= stale.sel {
		t.Fatal("polling should cost more selection probes than doing nothing")
	}
	if ps.sel >= poll.sel*0.9 {
		t.Fatalf("pub/sub selection probes (%v) should be well under polling (%v)", ps.sel, poll.sel)
	}
	if ps.last > stale.last*1.1 {
		t.Fatalf("pub/sub (%.3f) worse than stale (%.3f)", ps.last, stale.last)
	}
}

func TestExtChordShape(t *testing.T) {
	tables, err := RunExtChord(quickScale())
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	chordS := cell(t, tb, 0, 1)
	flatS := cell(t, tb, 1, 1)
	randS := cell(t, tb, 2, 1)
	t.Logf("chord %.3f flat %.3f random %.3f", chordS, flatS, randS)
	if chordS >= randS || flatS >= randS {
		t.Fatal("soft-state methods not better than random")
	}
	if chordS > flatS*2+0.5 {
		t.Fatalf("chord-hosted (%.3f) too far from flat index (%.3f)", chordS, flatS)
	}
}

func TestExtTACANShape(t *testing.T) {
	tables, err := RunExtTACAN(quickScale())
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	parsePct := func(s string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
		if err != nil {
			t.Fatalf("bad percent %q", s)
		}
		return v
	}
	uniformTop := parsePct(tb.Rows[0][1])
	tacanTop := parsePct(tb.Rows[1][1])
	uniformMaxNb := cell(t, tb, 0, 2)
	tacanMaxNb := cell(t, tb, 1, 2)
	t.Logf("top-10%% space: uniform %.1f%%, tacan %.1f%%; max neighbors %v vs %v",
		uniformTop, tacanTop, uniformMaxNb, tacanMaxNb)
	if tacanTop <= uniformTop {
		t.Fatal("topology-aware layout did not skew zone volumes")
	}
	if tacanMaxNb < uniformMaxNb {
		t.Fatal("topology-aware layout did not inflate neighbor sets")
	}
}

func TestExtGroupsShape(t *testing.T) {
	tables, err := RunExtGroups(quickScale())
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	single := cell(t, tb, 0, 1)
	best := single
	for r := 1; r < len(tb.Rows); r++ {
		if v := cell(t, tb, r, 1); v < best {
			best = v
		}
	}
	t.Logf("stretch: 1 group %.3f, best grouped %.3f", single, best)
	// Grouping must not be dramatically worse, and all values sane.
	for r := range tb.Rows {
		if v := cell(t, tb, r, 1); v < 1 || v > 50 {
			t.Fatalf("stretch %v out of band", v)
		}
	}
	if best > single*1.3 {
		t.Fatalf("grouping much worse than single curve: %.3f vs %.3f", best, single)
	}
}

func TestExtHierShape(t *testing.T) {
	tables, err := RunExtHier(quickScale())
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	globalOnly := cell(t, tb, 0, 2)
	hier := cell(t, tb, 2, 2)
	t.Logf("stretch: global-only %.3f, hierarchical %.3f", globalOnly, hier)
	if hier > globalOnly*1.05 {
		t.Fatalf("hierarchy (%.3f) worse than its own first stage (%.3f)", hier, globalOnly)
	}
	for r := range tb.Rows {
		if v := cell(t, tb, r, 2); v < 1 || v > 60 {
			t.Fatalf("stretch %v out of band", v)
		}
	}
}

func TestExtOrderingShape(t *testing.T) {
	tables, err := RunExtOrdering(quickScale())
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	ordering := cell(t, tb, 0, 2)
	vector := cell(t, tb, 1, 2)
	hybrid := cell(t, tb, 2, 2)
	t.Logf("stretch: ordering %.3f, vector-top1 %.3f, hybrid %.3f", ordering, vector, hybrid)
	if vector > ordering*1.1 {
		t.Fatalf("vector ranking (%.3f) worse than ordering clusters (%.3f)", vector, ordering)
	}
	if hybrid >= ordering {
		t.Fatalf("hybrid (%.3f) not better than ordering (%.3f)", hybrid, ordering)
	}
}

func TestExtSVDShape(t *testing.T) {
	tables, err := RunExtSVD(quickScale())
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if len(tb.Rows) < 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	raw := cell(t, tb, 0, 2)
	bestSVD := math.Inf(1)
	for r := 1; r < len(tb.Rows); r++ {
		if v := cell(t, tb, r, 2); v < bestSVD {
			bestSVD = v
		}
	}
	t.Logf("stretch: raw %.3f, best SVD %.3f", raw, bestSVD)
	// The low-rank basis must hold its own against the full noisy space.
	if bestSVD > raw*1.15 {
		t.Fatalf("SVD ranking (%.3f) much worse than raw (%.3f)", bestSVD, raw)
	}
	for r := range tb.Rows {
		if v := cell(t, tb, r, 2); v < 1 || v > 60 {
			t.Fatalf("stretch %v out of band", v)
		}
	}
}

func TestExtPastryShape(t *testing.T) {
	tables, err := RunExtPastry(quickScale())
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	random := cell(t, tb, 0, 1)
	lmk := cell(t, tb, 1, 1)
	opt := cell(t, tb, 2, 1)
	t.Logf("pastry stretch: random %.3f, landmark+rtt %.3f, optimal %.3f", random, lmk, opt)
	if lmk >= random*0.8 {
		t.Fatalf("landmark selection (%.3f) not clearly better than random (%.3f)", lmk, random)
	}
	if opt > lmk {
		t.Fatalf("oracle (%.3f) worse than landmark (%.3f)", opt, lmk)
	}
}

func TestExtFailureShape(t *testing.T) {
	tables, err := RunExtFailure(quickScale())
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	get := func(policy string, col int) float64 {
		for r, row := range tb.Rows {
			if row[0] == policy {
				return cell(t, tb, r, col)
			}
		}
		t.Fatalf("policy %s missing", policy)
		return 0
	}
	// Reactive hits dead entries during selection; polling mostly purges
	// them first (dead owners cannot poll, so a few slip through); the
	// proactive withdrawal leaves none.
	if get("reactive", 2) == 0 {
		t.Fatal("reactive policy never encountered dead entries")
	}
	if get("poll", 2) >= get("reactive", 2) {
		t.Fatal("polling did not reduce dead-entry encounters")
	}
	if get("proactive", 2) != 0 {
		t.Fatal("proactive policy still hit dead entries")
	}
	// Poll pays liveness probes; proactive pays withdrawals; neither pays
	// the other's cost.
	if get("poll", 3) == 0 || get("poll", 4) != 0 {
		t.Fatal("poll cost accounting wrong")
	}
	if get("proactive", 4) == 0 || get("proactive", 3) != 0 {
		t.Fatal("proactive cost accounting wrong")
	}
	// All policies converge to similar stretch.
	rs, ps, as := get("reactive", 1), get("poll", 1), get("proactive", 1)
	t.Logf("stretch: reactive %.3f poll %.3f proactive %.3f", rs, ps, as)
	for _, s := range []float64{rs, ps, as} {
		if s < 1 || s > 12 {
			t.Fatalf("stretch %v out of band", s)
		}
	}
	// Proactive leaves nothing stale.
	if get("proactive", 5) != 0 {
		t.Fatal("proactive left stale entries")
	}
}
