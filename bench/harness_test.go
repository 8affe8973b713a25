package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileSorted(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}, {0.25, 2},
	} {
		if got := percentileSorted(s, tc.p); !near(got, tc.want) {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentileSorted(nil, 0.5); got != 0 {
		t.Errorf("empty input = %v, want 0", got)
	}
	if got := percentileSorted([]float64{7}, 0.9); got != 7 {
		t.Errorf("single input = %v, want 7", got)
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	v := []float64{9, 1, 5, 3}
	if got := median(v); !near(got, 4) {
		t.Errorf("median = %v, want 4", got)
	}
	if v[0] != 9 || v[3] != 3 {
		t.Errorf("median reordered its input: %v", v)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q2, q3 := quartiles(v)
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// Two slices of three ops: the first takes 3 ms of wall time, the second
// 6 ms, and a trailing op is dropped.
func TestCutSlicesAndSliceMedians(t *testing.T) {
	ms := int64(time.Millisecond)
	all := []sample{
		{end: 1 * ms, dur: 1 * ms, units: 1},
		{end: 2 * ms, dur: 3 * ms, units: 1},
		{end: 3 * ms, dur: 2 * ms, units: 1},
		{end: 5 * ms, dur: 4 * ms, units: 2},
		{end: 7 * ms, dur: 6 * ms, units: 2},
		{end: 9 * ms, dur: 5 * ms, units: 2},
		{end: 10 * ms, dur: 9 * ms, units: 1},
	}
	slices := cutSlices(all, 3)
	if len(slices) != 2 {
		t.Fatalf("got %d slices, want 2", len(slices))
	}
	if !near(slices[0].throughput, 1000) || !near(slices[1].throughput, 1000) {
		t.Errorf("throughputs = %v, %v, want 1000 units/s each", slices[0].throughput, slices[1].throughput)
	}
	if !near(slices[0].p50, 2) || !near(slices[1].p50, 5) {
		t.Errorf("in-slice medians = %v, %v, want 2 and 5 ms", slices[0].p50, slices[1].p50)
	}
	ph := phase{samples: all, slices: slices}
	// Ten or more ops per slice: the median over slices of the in-slice value.
	if p50, _, _ := ph.latencies(minPercentileOps); !near(p50, 3.5) {
		t.Errorf("median over slices = %v, want 3.5", p50)
	}
	// Fewer: the percentile over every op of the phase.
	if p50, _, _ := ph.latencies(3); !near(p50, 4) {
		t.Errorf("whole-phase median = %v, want 4", p50)
	}
	if got := ph.throughput(); !near(got, 1000) {
		t.Errorf("throughput = %v, want 1000", got)
	}
}

func TestSliceIQRRatio(t *testing.T) {
	ph := phase{slices: []sliceStat{{throughput: 90}, {throughput: 100}, {throughput: 100}, {throughput: 100}, {throughput: 110}}}
	if got := ph.sliceIQRRatio(); !near(got, 0) {
		t.Errorf("iqr ratio = %v, want 0 (q1 = q3 = 100)", got)
	}
}

type fakeInstance struct {
	instance
	closed *int
}

func (f fakeInstance) close() { *f.closed++ }

// The median of the set-ups is reported, every instance but the last is
// closed, and the last is the one returned.
func TestSetUpMedianKeepsLast(t *testing.T) {
	sleeps := []time.Duration{time.Millisecond, 60 * time.Millisecond, 2 * time.Millisecond}
	closed := 0
	var built []int
	inst, secs, err := setUp(len(sleeps), func(round int) (instance, error) {
		time.Sleep(sleeps[round])
		built = append(built, round)
		return fakeInstance{closed: &closed}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(built) != 3 || closed != 2 {
		t.Errorf("built %v, closed %d; want three built, two closed", built, closed)
	}
	if secs < 0.002 || secs > 0.030 {
		t.Errorf("median set-up = %v s, want the 2 ms round (not the 60 ms one)", secs)
	}
	inst.close()
	if closed != 3 {
		t.Errorf("returned instance is not the last one built")
	}
}
