package hilbert

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name       string
		dims, bits int
		ok         bool
	}{
		{"1x1", 1, 1, true},
		{"2x8", 2, 8, true},
		{"8x8", 8, 8, true},
		{"16x4", 16, 4, true},
		{"zero-dims", 0, 4, false},
		{"zero-bits", 2, 0, false},
		{"too-wide", 16, 5, false},
		{"max-width", 4, 16, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.dims, tc.bits)
			if (err == nil) != tc.ok {
				t.Fatalf("New(%d,%d) err = %v, want ok=%v", tc.dims, tc.bits, err, tc.ok)
			}
		})
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(0, 0)
}

func TestAccessors(t *testing.T) {
	c := MustNew(3, 5)
	if c.Dims() != 3 || c.Bits() != 5 {
		t.Fatal("accessors wrong")
	}
	if c.CellsPerAxis() != 32 {
		t.Fatalf("CellsPerAxis = %d", c.CellsPerAxis())
	}
	if c.MaxIndex() != 1<<15-1 {
		t.Fatalf("MaxIndex = %d", c.MaxIndex())
	}
	full := MustNew(4, 16)
	if full.MaxIndex() != ^uint64(0) {
		t.Fatalf("64-bit MaxIndex = %d", full.MaxIndex())
	}
}

func TestEncodeValidation(t *testing.T) {
	c := MustNew(2, 3)
	if _, err := c.Encode([]uint32{1}); err == nil {
		t.Fatal("wrong arity accepted")
	}
	if _, err := c.Encode([]uint32{8, 0}); err == nil {
		t.Fatal("out-of-grid coord accepted")
	}
}

func TestDecodeValidation(t *testing.T) {
	c := MustNew(2, 3)
	if _, err := c.Decode(64); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

func TestEncodeDoesNotMutateInput(t *testing.T) {
	c := MustNew(2, 4)
	in := []uint32{5, 9}
	if _, err := c.Encode(in); err != nil {
		t.Fatal(err)
	}
	if in[0] != 5 || in[1] != 9 {
		t.Fatalf("input mutated: %v", in)
	}
}

// TestBijection verifies that Encode is a bijection onto [0, MaxIndex] for
// several small curves, via full enumeration.
func TestBijection(t *testing.T) {
	shapes := []struct{ dims, bits int }{
		{1, 4}, {2, 3}, {3, 3}, {4, 2}, {5, 2},
	}
	for _, sh := range shapes {
		c := MustNew(sh.dims, sh.bits)
		total := c.MaxIndex() + 1
		seen := make(map[uint64]bool, total)
		coords := make([]uint32, sh.dims)
		var walk func(d int)
		walk = func(d int) {
			if d == sh.dims {
				idx, err := c.Encode(coords)
				if err != nil {
					t.Fatal(err)
				}
				if seen[idx] {
					t.Fatalf("%dx%d: duplicate index %d for %v", sh.dims, sh.bits, idx, coords)
				}
				seen[idx] = true
				return
			}
			for v := uint32(0); v < c.CellsPerAxis(); v++ {
				coords[d] = v
				walk(d + 1)
			}
		}
		walk(0)
		if uint64(len(seen)) != total {
			t.Fatalf("%dx%d: covered %d of %d indices", sh.dims, sh.bits, len(seen), total)
		}
	}
}

// TestAdjacency verifies the defining Hilbert property: consecutive curve
// indices map to grid cells at L1 distance exactly 1.
func TestAdjacency(t *testing.T) {
	shapes := []struct{ dims, bits int }{
		{2, 4}, {3, 3}, {4, 2},
	}
	for _, sh := range shapes {
		c := MustNew(sh.dims, sh.bits)
		prev, err := c.Decode(0)
		if err != nil {
			t.Fatal(err)
		}
		for idx := uint64(1); idx <= c.MaxIndex(); idx++ {
			cur, err := c.Decode(idx)
			if err != nil {
				t.Fatal(err)
			}
			dist := 0
			for i := range cur {
				d := int(cur[i]) - int(prev[i])
				if d < 0 {
					d = -d
				}
				dist += d
			}
			if dist != 1 {
				t.Fatalf("%dx%d: indices %d->%d jump L1 distance %d (%v -> %v)",
					sh.dims, sh.bits, idx-1, idx, dist, prev, cur)
			}
			prev = cur
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	c := MustNew(3, 7)
	f := func(a, b, ch uint32) bool {
		coords := []uint32{a % 128, b % 128, ch % 128}
		idx, err := c.Encode(coords)
		if err != nil {
			return false
		}
		back, err := c.Decode(idx)
		if err != nil {
			return false
		}
		for i := range coords {
			if back[i] != coords[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripFullWidth(t *testing.T) {
	// dims*bits == 64: exercise the unshiftable boundary.
	c := MustNew(4, 16)
	cases := [][]uint32{
		{0, 0, 0, 0},
		{65535, 65535, 65535, 65535},
		{1, 2, 3, 4},
		{65535, 0, 65535, 0},
	}
	for _, coords := range cases {
		idx, err := c.Encode(coords)
		if err != nil {
			t.Fatal(err)
		}
		back, err := c.Decode(idx)
		if err != nil {
			t.Fatal(err)
		}
		for i := range coords {
			if back[i] != coords[i] {
				t.Fatalf("roundtrip failed for %v: got %v", coords, back)
			}
		}
	}
}

func TestOneDimensionalIsIdentity(t *testing.T) {
	c := MustNew(1, 6)
	for v := uint32(0); v < 64; v++ {
		idx, err := c.Encode([]uint32{v})
		if err != nil {
			t.Fatal(err)
		}
		if idx != uint64(v) {
			t.Fatalf("1-d curve not identity: %d -> %d", v, idx)
		}
	}
}

// TestLocality checks the curve's raison d'être quantitatively: points
// close on the curve are close in space on average, much closer than
// random pairs.
func TestLocality(t *testing.T) {
	c := MustNew(2, 6) // 64x64 grid, 4096 cells
	n := c.MaxIndex() + 1
	euclid := func(a, b []uint32) float64 {
		s := 0.0
		for i := range a {
			d := float64(a[i]) - float64(b[i])
			s += d * d
		}
		return math.Sqrt(s)
	}
	// Mean distance between curve neighbors at lag 4.
	lagSum, lagCount := 0.0, 0
	for idx := uint64(0); idx+4 < n; idx += 7 {
		a, _ := c.Decode(idx)
		b, _ := c.Decode(idx + 4)
		lagSum += euclid(a, b)
		lagCount++
	}
	// Mean distance between random-ish pairs (large stride).
	farSum, farCount := 0.0, 0
	for idx := uint64(0); idx < n; idx += 13 {
		a, _ := c.Decode(idx)
		b, _ := c.Decode((idx * 2654435761) % n)
		farSum += euclid(a, b)
		farCount++
	}
	lagMean := lagSum / float64(lagCount)
	farMean := farSum / float64(farCount)
	if lagMean*5 > farMean {
		t.Fatalf("locality too weak: lag-4 mean %v vs random mean %v", lagMean, farMean)
	}
}

func TestQuantize(t *testing.T) {
	c := MustNew(3, 4) // 16 cells per axis
	got, err := c.Quantize([]float64{0, 50, 100}, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{0, 8, 15}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Quantize = %v, want %v", got, want)
		}
	}
}

func TestQuantizeClamps(t *testing.T) {
	c := MustNew(2, 4)
	got, err := c.Quantize([]float64{-5, 1e9}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 || got[1] != 15 {
		t.Fatalf("clamping failed: %v", got)
	}
}

func TestQuantizeValidation(t *testing.T) {
	c := MustNew(2, 4)
	if _, err := c.Quantize([]float64{1}, 100); err == nil {
		t.Fatal("arity violation accepted")
	}
	if _, err := c.Quantize([]float64{1, 2}, 0); err == nil {
		t.Fatal("non-positive max accepted")
	}
}

func BenchmarkEncode2D(b *testing.B) {
	c := MustNew(2, 16)
	coords := []uint32{12345, 54321}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(coords); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode4D(b *testing.B) {
	c := MustNew(4, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(uint64(i) & c.MaxIndex()); err != nil {
			b.Fatal(err)
		}
	}
}
