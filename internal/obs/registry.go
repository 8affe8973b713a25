// Package obs is the repo's telemetry layer: a dependency-free metrics
// registry (atomic counters, gauges, and fixed-bucket histograms with
// labeled families) and exposition encoders (Prometheus text format and
// JSON) over point-in-time snapshots.
//
// The live stack reports here: its wire nodes count requests and observe
// latencies into a registry that cmd/overlayd serves over HTTP, and
// cmd/overlaymon merges across nodes. There is no process-global
// registry; the simulator meters its probes and messages in netsim.
// Cross-process request tracing lives in obs/span. Everything is safe for concurrent use; the
// hot-path cost of an update is one or two atomic operations.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind classifies a metric family.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Registry holds metric families keyed by name. The zero value is not
// usable; create with NewRegistry. All methods are safe for concurrent
// use.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// family is one named metric: a kind, label names, and the series created
// so far (one per distinct label-value combination).
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string
	bounds []float64 // histogram families only

	mu     sync.RWMutex
	series map[string]*series // keyed by joined label values
}

// series is one (family, label values) time series.
type series struct {
	labelValues []string
	bits        atomic.Uint64 // counter/gauge value as Float64bits
	hist        *histogram    // histogram families only
}

// histogram is a fixed-bucket histogram: counts[i] observes values
// <= bounds[i]; counts[len(bounds)] is the +Inf bucket.
type histogram struct {
	bounds []float64
	counts []atomic.Uint64
	sum    atomic.Uint64 // Float64bits
	count  atomic.Uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// getOrCreate returns the named family, creating it on first use. A
// second registration must agree on kind and label names; disagreement is
// a programming error and panics.
func (r *Registry) getOrCreate(name, help string, kind Kind, bounds []float64, labels []string) *family {
	r.mu.RLock()
	f, ok := r.families[name]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		if f, ok = r.families[name]; !ok {
			f = &family{
				name:   name,
				help:   help,
				kind:   kind,
				labels: append([]string(nil), labels...),
				bounds: bounds,
				series: make(map[string]*series),
			}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != kind || len(f.labels) != len(labels) {
		panic(fmt.Sprintf("obs: conflicting registration of %q (%v/%d labels vs %v/%d labels)",
			name, f.kind, len(f.labels), kind, len(labels)))
	}
	return f
}

// Counter registers (or fetches) a counter family. labels name the
// dimensions; call With on the result to resolve one series.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{fam: r.getOrCreate(name, help, KindCounter, nil, labels)}
}

// Gauge registers (or fetches) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{fam: r.getOrCreate(name, help, KindGauge, nil, labels)}
}

// Histogram registers (or fetches) a histogram family with the given
// bucket upper bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	sorted := append([]float64(nil), bounds...)
	sort.Float64s(sorted)
	return &HistogramVec{fam: r.getOrCreate(name, help, KindHistogram, sorted, labels)}
}

// DefBuckets are the default histogram bounds, tuned for millisecond
// latencies in a LAN-to-WAN range.
var DefBuckets = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000}

// seriesKey joins label values into a map key. The separator cannot
// appear in practice; label values here are message types and categories.
func seriesKey(values []string) string { return strings.Join(values, "\x1f") }

// with resolves one series of the family, creating it on first use.
func (f *family) with(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := seriesKey(values)
	f.mu.RLock()
	s, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok = f.series[key]; ok {
		return s
	}
	s = &series{labelValues: append([]string(nil), values...)}
	if f.kind == KindHistogram {
		s.hist = &histogram{
			bounds: f.bounds,
			counts: make([]atomic.Uint64, len(f.bounds)+1),
		}
	}
	f.series[key] = s
	return s
}

// CounterVec is a labeled counter family.
type CounterVec struct{ fam *family }

// With resolves the series for the given label values.
func (v *CounterVec) With(values ...string) *Counter { return &Counter{s: v.fam.with(values)} }

// Counter is a monotonically increasing value.
type Counter struct{ s *series }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta (negative deltas are ignored: counters are monotone).
func (c *Counter) Add(delta float64) {
	if delta < 0 {
		return
	}
	addFloat(&c.s.bits, delta)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.s.bits.Load()) }

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ fam *family }

// With resolves the series for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return &Gauge{s: v.fam.with(values)} }

// Gauge is a value that can go up and down.
type Gauge struct{ s *series }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.s.bits.Store(math.Float64bits(v)) }

// Add adds delta (which may be negative).
func (g *Gauge) Add(delta float64) { addFloat(&g.s.bits, delta) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.s.bits.Load()) }

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ fam *family }

// With resolves the series for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return &Histogram{h: v.fam.with(values).hist}
}

// Histogram observes values into fixed buckets.
type Histogram struct{ h *histogram }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	hh := h.h
	// First bucket whose upper bound covers v; the trailing +Inf bucket
	// catches everything else (including NaN, which lands there too).
	i := sort.SearchFloat64s(hh.bounds, v)
	hh.counts[i].Add(1)
	hh.count.Add(1)
	addFloat(&hh.sum, v)
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 { return h.h.count.Load() }

// Sum returns the sum of observations so far.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.h.sum.Load()) }

// addFloat adds delta to a Float64bits-encoded atomic via CAS.
func addFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Snapshot is a point-in-time copy of a registry, safe to encode or
// inspect while writers continue.
type Snapshot struct {
	Families []FamilySnapshot `json:"families"`
}

// FamilySnapshot is one family's snapshot.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Help   string           `json:"help,omitempty"`
	Kind   string           `json:"kind"`
	Labels []string         `json:"labels,omitempty"`
	Series []SeriesSnapshot `json:"series"`
}

// SeriesSnapshot is one series' snapshot. Value holds counter/gauge
// values; Hist is set for histogram families.
type SeriesSnapshot struct {
	LabelValues []string      `json:"label_values,omitempty"`
	Value       float64       `json:"value"`
	Hist        *HistSnapshot `json:"hist,omitempty"`
}

// HistSnapshot is a histogram's snapshot. Counts[i] is the number of
// observations <= Bounds[i]; Counts[len(Bounds)] is the +Inf bucket.
type HistSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  uint64    `json:"count"`
}

// Snapshot copies the registry's current state, with families sorted by
// name and series by label values, so encodings are deterministic.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	snap := Snapshot{Families: make([]FamilySnapshot, 0, len(fams))}
	for _, f := range fams {
		fs := FamilySnapshot{
			Name:   f.name,
			Help:   f.help,
			Kind:   f.kind.String(),
			Labels: append([]string(nil), f.labels...),
		}
		f.mu.RLock()
		all := make([]*series, 0, len(f.series))
		for _, s := range f.series {
			all = append(all, s)
		}
		f.mu.RUnlock()
		sort.Slice(all, func(i, j int) bool {
			return seriesKey(all[i].labelValues) < seriesKey(all[j].labelValues)
		})
		for _, s := range all {
			ss := SeriesSnapshot{LabelValues: append([]string(nil), s.labelValues...)}
			if f.kind == KindHistogram {
				h := &HistSnapshot{
					Bounds: append([]float64(nil), s.hist.bounds...),
					Counts: make([]uint64, len(s.hist.counts)),
					Sum:    math.Float64frombits(s.hist.sum.Load()),
					Count:  s.hist.count.Load(),
				}
				for i := range s.hist.counts {
					h.Counts[i] = s.hist.counts[i].Load()
				}
				ss.Hist = h
			} else {
				ss.Value = math.Float64frombits(s.bits.Load())
			}
			fs.Series = append(fs.Series, ss)
		}
		snap.Families = append(snap.Families, fs)
	}
	return snap
}

// Family returns the named family's snapshot.
func (s Snapshot) Family(name string) (FamilySnapshot, bool) {
	for _, f := range s.Families {
		if f.Name == name {
			return f, true
		}
	}
	return FamilySnapshot{}, false
}

// Value returns the value of one counter/gauge series (identified by its
// label values, in family label order), and whether it exists.
func (s Snapshot) Value(name string, labelValues ...string) (float64, bool) {
	f, ok := s.Family(name)
	if !ok {
		return 0, false
	}
	want := seriesKey(labelValues)
	for _, se := range f.Series {
		if seriesKey(se.LabelValues) == want {
			return se.Value, true
		}
	}
	return 0, false
}
