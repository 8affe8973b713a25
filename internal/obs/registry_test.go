package obs

import (
	"math"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "Requests.", "type").With("ping")
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters are monotone
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %v, want 3", got)
	}
	// Re-registration returns the same underlying series.
	again := r.Counter("requests_total", "Requests.", "type").With("ping")
	again.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter after re-registration = %v, want 4", got)
	}
	if v, ok := r.Snapshot().Value("requests_total", "ping"); !ok || v != 4 {
		t.Fatalf("snapshot value = %v/%v, want 4/true", v, ok)
	}
}

func TestGaugeSetAdd(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("live", "Live entries.").With()
	g.Set(10)
	g.Add(-3.5)
	if got := g.Value(); got != 6.5 {
		t.Fatalf("gauge = %v, want 6.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("rtt_ms", "RTTs.", []float64{1, 10, 100}).With()
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	f, ok := snap.Family("rtt_ms")
	if !ok || f.Series[0].Hist == nil {
		t.Fatal("histogram family missing")
	}
	hist := f.Series[0].Hist
	// 0.5 and 1 land in le=1; 5 in le=10; 50 in le=100; 500 in +Inf.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if hist.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, hist.Counts[i], w, hist.Counts)
		}
	}
	if hist.Count != 5 || hist.Sum != 556.5 {
		t.Fatalf("count/sum = %d/%v, want 5/556.5", hist.Count, hist.Sum)
	}
	if h.Count() != 5 || h.Sum() != 556.5 {
		t.Fatalf("live count/sum = %d/%v", h.Count(), h.Sum())
	}
}

func TestHistogramNaNLandsInInf(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x", "", []float64{1}).With()
	h.Observe(math.NaN())
	f, _ := r.Snapshot().Family("x")
	if f.Series[0].Hist.Counts[1] != 1 {
		t.Fatalf("NaN not in +Inf bucket: %v", f.Series[0].Hist.Counts)
	}
}

func TestConflictingRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering as a gauge did not panic")
		}
	}()
	r.Gauge("m", "")
}

// TestConcurrentWriters hammers one family of each kind from many
// goroutines while snapshots are taken; totals must balance. Run under
// -race this is also the registry's race test.
func TestConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	cv := r.Counter("ops_total", "Ops.", "kind")
	gv := r.Gauge("level", "Level.", "kind")
	hv := r.Histogram("lat_ms", "Latency.", []float64{1, 5, 25}, "kind")

	const workers = 8
	const perWorker = 2000
	kinds := []string{"a", "b", "c"}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			kind := kinds[w%len(kinds)]
			c := cv.With(kind)
			g := gv.With(kind)
			h := hv.With(kind)
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 30))
			}
		}(w)
	}
	// Concurrent readers: snapshots while writes are in flight.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = r.Snapshot()
		}
	}()
	wg.Wait()
	<-done

	snap := r.Snapshot()
	var totalOps, totalLevel float64
	var totalObs uint64
	for _, kind := range kinds {
		if v, ok := snap.Value("ops_total", kind); ok {
			totalOps += v
		}
		if v, ok := snap.Value("level", kind); ok {
			totalLevel += v
		}
	}
	f, _ := snap.Family("lat_ms")
	for _, s := range f.Series {
		totalObs += s.Hist.Count
		var inBuckets uint64
		for _, c := range s.Hist.Counts {
			inBuckets += c
		}
		if inBuckets != s.Hist.Count {
			t.Fatalf("bucket counts %v do not sum to count %d", s.Hist.Counts, s.Hist.Count)
		}
	}
	if want := float64(workers * perWorker); totalOps != want || totalLevel != want {
		t.Fatalf("totals = %v/%v, want %v", totalOps, totalLevel, want)
	}
	if totalObs != workers*perWorker {
		t.Fatalf("observations = %d, want %d", totalObs, workers*perWorker)
	}
}
