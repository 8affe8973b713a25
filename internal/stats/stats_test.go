package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMean(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 5},
		{"pair", []float64{2, 4}, 3},
		{"negatives", []float64{-1, 1, -3, 3}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Mean(tc.in); !almostEqual(got, tc.want, 1e-12) {
				t.Fatalf("Mean(%v) = %v, want %v", tc.in, got, tc.want)
			}
		})
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Fatalf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Fatalf("StdDev = %v, want 2", got)
	}
	if got := Variance([]float64{1}); got != 0 {
		t.Fatalf("Variance single = %v, want 0", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct {
		p, want float64
	}{
		{0, 10}, {25, 20}, {50, 30}, {75, 40}, {100, 50}, {10, 14},
		{-5, 10}, {120, 50}, // clamped
	}
	for _, tc := range cases {
		if got := percentileSorted(xs, tc.p); !almostEqual(got, tc.want, 1e-9) {
			t.Fatalf("percentileSorted(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentileSorted([]float64{7}, 93); got != 7 {
		t.Fatalf("single percentile = %v", got)
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{5, 1, 3}
	Summarize(xs)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestMedian(t *testing.T) {
	if got := Summarize([]float64{1, 3, 2}).Median; got != 2 {
		t.Fatalf("Median = %v", got)
	}
	if got := Summarize([]float64{1, 2, 3, 4}).Median; !almostEqual(got, 2.5, 1e-12) {
		t.Fatalf("Median even = %v", got)
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	s := Summarize(xs)
	if s.N != 10 || !almostEqual(s.Mean, 5.5, 1e-12) || s.Min != 1 || s.Max != 10 {
		t.Fatalf("bad summary: %+v", s)
	}
	if !almostEqual(s.Median, 5.5, 1e-9) {
		t.Fatalf("median = %v", s.Median)
	}
	if Summarize(nil).N != 0 {
		t.Fatal("empty summary should be zero")
	}
	if s.String() == "" {
		t.Fatal("String should be non-empty")
	}
}

func TestPercentileAgainstQuickProperty(t *testing.T) {
	// Every percentile lies between the sample's min and max.
	f := func(raw []float64, p8 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				raw[i] = float64(i)
			}
		}
		sort.Float64s(raw)
		v := percentileSorted(raw, float64(p8)/255*100)
		return v >= raw[0]-1e-9 && v <= raw[len(raw)-1]+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
