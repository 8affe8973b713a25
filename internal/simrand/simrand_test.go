package simrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical draws", same)
	}
}

func TestSplitStability(t *testing.T) {
	root := New(7)
	// Consuming randomness from the parent must not change the child.
	c1 := root.Split("alpha")
	for i := 0; i < 57; i++ {
		root.Uint64()
	}
	c2 := New(7).Split("alpha")
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatalf("split stream not stable at step %d", i)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(7)
	a := root.Split("a")
	b := root.Split("b")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("sibling splits produced %d/100 identical draws", same)
	}
}

func TestNestedSplitPath(t *testing.T) {
	// A nested split is keyed by its whole label path: it reproduces, and
	// it differs from a root split by its last label alone.
	a, b := New(1).Split("x").Split("y"), New(1).Split("x").Split("y")
	c := New(1).Split("y")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("nested split not reproducible at step %d", i)
		}
	}
	if New(1).Split("x").Split("y").Uint64() == c.Uint64() {
		t.Fatal("nested split ignores its parent label")
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestRange(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Range(2.5, 7.25)
		if v < 2.5 || v >= 7.25 {
			t.Fatalf("Range(2.5, 7.25) = %v out of range", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestSampleDistinct(t *testing.T) {
	s := New(5)
	f := func(n8, k8 uint8) bool {
		n := int(n8)%50 + 1
		k := int(k8) % (n + 1)
		out := s.Sample(n, k)
		if len(out) != k {
			return false
		}
		seen := map[int]struct{}{}
		for _, v := range out {
			if v < 0 || v >= n {
				return false
			}
			if _, dup := seen[v]; dup {
				return false
			}
			seen[v] = struct{}{}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleLargeNSmallK(t *testing.T) {
	s := New(5)
	out := s.Sample(1_000_000, 10)
	if len(out) != 10 {
		t.Fatalf("len = %d", len(out))
	}
}

func TestSamplePanicsWhenKExceedsN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Sample(3, 4)
}

func TestPermIsPermutation(t *testing.T) {
	s := New(13)
	p := s.Perm(64)
	seen := make([]bool, 64)
	for _, v := range p {
		if seen[v] {
			t.Fatalf("duplicate %d", v)
		}
		seen[v] = true
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(29)
	hits := 0
	for i := 0; i < 100000; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / 100000
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) rate = %v", p)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.Uint64()
	}
}

func BenchmarkSample16Of10k(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.Sample(10000, 16)
	}
}

func TestSampleZeroAndFull(t *testing.T) {
	s := New(39)
	if got := s.Sample(10, 0); got != nil {
		t.Fatalf("Sample(_, 0) = %v", got)
	}
	full := s.Sample(10, 10)
	if len(full) != 10 {
		t.Fatalf("full sample len %d", len(full))
	}
}

func TestRangeDegenerate(t *testing.T) {
	s := New(41)
	if v := s.Range(5, 5); v != 5 {
		t.Fatalf("Range(5,5) = %v", v)
	}
}
