package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// The harness traces from outside: each call into a layer's public function
// is wrapped in begin/end, nothing inside the program is instrumented. A nil
// *tracer is the untraced run and costs one nil check per call.

// span is one timed call. Spans of one op share Op; Parent is the ID of the
// span that was open when this one began (0 for none). Set-up spans carry
// Op -1.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layerStat aggregates every span of one name, kept or not.
type layerStat struct {
	Count   int64 `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"` // total minus the time covered by child spans
}

// maxKeptSpans bounds the span file; the aggregates still see every span.
const maxKeptSpans = 50_000

type openSpan struct {
	name     string
	id       int64
	start    int64
	children int64 // ns covered by finished child spans
}

// tracer records the spans of one goroutine; clients never share one.
type tracer struct {
	now     func() int64 // ns on a clock shared by all tracers of a run
	idBase  int64
	nextID  int64
	op      int64
	open    []openSpan
	kept    []span
	dropped int64
	layers  map[string]*layerStat
}

// newTracers returns one tracer per client on a common clock.
func newTracers(clients int) []*tracer {
	base := time.Now()
	now := func() int64 { return int64(time.Since(base)) }
	out := make([]*tracer, clients)
	for c := range out {
		out[c] = newTracer(now, int64(c+1)<<40)
	}
	return out
}

func newTracer(now func() int64, idBase int64) *tracer {
	return &tracer{now: now, idBase: idBase, op: -1, layers: map[string]*layerStat{}}
}

func (t *tracer) setOp(op int64) {
	if t != nil {
		t.op = op
	}
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	t.nextID++
	t.open = append(t.open, openSpan{name: name, id: t.idBase + t.nextID, start: t.now()})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	end := t.now()
	o := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	dur := end - o.start
	parent := int64(0)
	if n := len(t.open); n > 0 {
		t.open[n-1].children += dur
		parent = t.open[n-1].id
	}
	st := t.layers[o.name]
	if st == nil {
		st = &layerStat{}
		t.layers[o.name] = st
	}
	st.Count++
	st.TotalNs += dur
	st.SelfNs += dur - o.children
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, span{Name: o.name, Op: t.op, ID: o.id, Parent: parent, Start: o.start, End: end})
	} else {
		t.dropped++
	}
}

// mergeLayers sums the aggregates of several tracers.
func mergeLayers(trs []*tracer) map[string]layerStat {
	out := map[string]layerStat{}
	for _, t := range trs {
		for name, st := range t.layers {
			m := out[name]
			m.Count += st.Count
			m.TotalNs += st.TotalNs
			m.SelfNs += st.SelfNs
			out[name] = m
		}
	}
	return out
}

// layerView turns merged aggregates into the per-layer numbers.
type layerView map[string]layerStat

func (v layerView) count(name string) float64 { return float64(v[name].Count) }

// mean returns the mean span duration in ns (0 when the layer never ran).
func (v layerView) mean(name string) float64 {
	st := v[name]
	if st.Count == 0 {
		return 0
	}
	return float64(st.TotalNs) / float64(st.Count)
}

// meanSelf returns the mean self time in ns.
func (v layerView) meanSelf(name string) float64 {
	st := v[name]
	if st.Count == 0 {
		return 0
	}
	return float64(st.SelfNs) / float64(st.Count)
}

// spanFile is what -trace-out holds.
type spanFile struct {
	Workload string               `json:"workload"`
	Seed     uint64               `json:"seed"`
	Dropped  int64                `json:"dropped_spans"`
	Layers   map[string]layerStat `json:"layers"`
	Spans    []span               `json:"spans"`
}

func writeSpanFile(path, workload string, seed uint64, trs []*tracer) error {
	f := spanFile{Workload: workload, Seed: seed, Layers: mergeLayers(trs)}
	for _, t := range trs {
		f.Spans = append(f.Spans, t.kept...)
		f.Dropped += t.dropped
	}
	sort.SliceStable(f.Spans, func(i, j int) bool { return f.Spans[i].Start < f.Spans[j].Start })
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
