package main

import "testing"

// A hand-made clock: every call to now returns the next value.
func scripted(times ...int64) func() int64 {
	i := 0
	return func() int64 { i++; return times[i-1] }
}

func TestSpanSelfTime(t *testing.T) {
	// route [0,100] holds select [10,30] and select [40,80]; select [40,80]
	// holds lookup [50,60].
	tr := newTracer(scripted(0, 10, 30, 40, 50, 60, 80, 100), 1<<40)
	tr.setOp(7)
	tr.begin("route")
	tr.begin("select")
	tr.end()
	tr.begin("select")
	tr.begin("lookup")
	tr.end()
	tr.end()
	tr.end()

	want := map[string]layerStat{
		"route":  {Count: 1, TotalNs: 100, SelfNs: 40}, // 100 - 20 - 40
		"select": {Count: 2, TotalNs: 60, SelfNs: 50},  // 20 + (40 - 10)
		"lookup": {Count: 1, TotalNs: 10, SelfNs: 10},
	}
	got := mergeLayers([]*tracer{tr})
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %+v, want %+v", name, got[name], w)
		}
	}
	lv := layerView(got)
	if lv.mean("select") != 30 || lv.meanSelf("route") != 40 || lv.mean("absent") != 0 {
		t.Errorf("layerView means wrong: %v %v %v", lv.mean("select"), lv.meanSelf("route"), lv.mean("absent"))
	}

	if len(tr.kept) != 4 {
		t.Fatalf("kept %d spans, want 4", len(tr.kept))
	}
	// Spans are kept in completion order: select, lookup, select, route.
	route, lookup, second := tr.kept[3], tr.kept[1], tr.kept[2]
	if route.Parent != 0 || second.Parent != route.ID || lookup.Parent != second.ID {
		t.Errorf("parent links wrong: route %+v, select %+v, lookup %+v", route, second, lookup)
	}
	for _, s := range tr.kept {
		if s.Op != 7 {
			t.Errorf("span %s carries op %d, want 7", s.Name, s.Op)
		}
	}
}

func TestNilTracerIsUntraced(t *testing.T) {
	var tr *tracer
	tr.setOp(1)
	tr.begin("x")
	tr.end()
}

func TestSpanCapKeepsAggregating(t *testing.T) {
	n := int64(0)
	tr := newTracer(func() int64 { n++; return n }, 0)
	for i := 0; i < maxKeptSpans+10; i++ {
		tr.begin("op")
		tr.end()
	}
	if len(tr.kept) != maxKeptSpans || tr.dropped != 10 {
		t.Errorf("kept %d dropped %d, want %d and 10", len(tr.kept), tr.dropped, maxKeptSpans)
	}
	if got := tr.layers["op"].Count; got != maxKeptSpans+10 {
		t.Errorf("aggregate saw %d spans, want %d", got, maxKeptSpans+10)
	}
}
