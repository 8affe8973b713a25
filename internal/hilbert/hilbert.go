// Package hilbert implements the d-dimensional Hilbert space-filling curve.
//
// The paper (appendix) reduces a node's high-dimensional landmark vector to
// a single scalar "landmark number" with a space-filling curve, so that
// closeness in the scalar preserves closeness in landmark space. The same
// curve is used in the other direction to place a landmark number at a
// point inside an overlay region when storing soft-state.
//
// The implementation is Skilling's transpose algorithm ("Programming the
// Hilbert curve", AIP 2004): O(dims * bits) per conversion, no tables.
package hilbert

import "fmt"

// Curve is a Hilbert curve over a dims-dimensional grid with 2^bits cells
// per axis. The total index space is dims*bits wide and must fit in a
// uint64. The zero value is unusable; construct with New.
type Curve struct {
	dims int
	bits int
}

// New returns a curve over [0, 2^bits)^dims. It returns an error unless
// dims >= 1, bits >= 1, and dims*bits <= 64.
func New(dims, bits int) (Curve, error) {
	switch {
	case dims < 1:
		return Curve{}, fmt.Errorf("hilbert: dims = %d, need >= 1", dims)
	case bits < 1:
		return Curve{}, fmt.Errorf("hilbert: bits = %d, need >= 1", bits)
	case dims*bits > 64:
		return Curve{}, fmt.Errorf("hilbert: dims*bits = %d exceeds 64", dims*bits)
	}
	return Curve{dims: dims, bits: bits}, nil
}

// MustNew is New that panics on error; for vetted constant parameters.
func MustNew(dims, bits int) Curve {
	c, err := New(dims, bits)
	if err != nil {
		panic(err)
	}
	return c
}

// Dims returns the dimensionality of the curve.
func (c Curve) Dims() int { return c.dims }

// Bits returns the per-axis resolution in bits.
func (c Curve) Bits() int { return c.bits }

// CellsPerAxis returns 2^bits.
func (c Curve) CellsPerAxis() uint32 { return 1 << uint(c.bits) }

// MaxIndex returns the largest valid curve index, 2^(dims*bits) - 1.
func (c Curve) MaxIndex() uint64 {
	w := uint(c.dims * c.bits)
	if w == 64 {
		return ^uint64(0)
	}
	return (uint64(1) << w) - 1
}

// Encode maps grid coordinates to the Hilbert index. coords must have
// length dims and every value must be < 2^bits; violations return an error.
// It does not allocate: dims <= 64, so the working copy fits on the stack.
func (c Curve) Encode(coords []uint32) (uint64, error) {
	if len(coords) != c.dims {
		return 0, fmt.Errorf("hilbert: got %d coords, want %d", len(coords), c.dims)
	}
	limit := c.CellsPerAxis()
	var scratch [64]uint32
	x := scratch[:c.dims]
	for i, v := range coords {
		if v >= limit {
			return 0, fmt.Errorf("hilbert: coord[%d] = %d exceeds grid size %d", i, v, limit)
		}
		x[i] = v
	}
	c.axesToTranspose(x)
	return c.interleave(x), nil
}

// Decode maps a Hilbert index back to grid coordinates. The index must not
// exceed MaxIndex.
func (c Curve) Decode(index uint64) ([]uint32, error) {
	if index > c.MaxIndex() {
		return nil, fmt.Errorf("hilbert: index %d exceeds max %d", index, c.MaxIndex())
	}
	x := c.deinterleave(index)
	c.transposeToAxes(x)
	return x, nil
}

// axesToTranspose converts coordinates in place to the "transposed"
// Hilbert representation (Skilling 2004).
func (c Curve) axesToTranspose(x []uint32) {
	n := c.dims
	m := uint32(1) << uint(c.bits-1)
	// Inverse undo.
	for q := m; q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < n; i++ {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < n; i++ {
		x[i] ^= x[i-1]
	}
	var t uint32
	for q := m; q > 1; q >>= 1 {
		if x[n-1]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < n; i++ {
		x[i] ^= t
	}
}

// transposeToAxes is the inverse of axesToTranspose.
func (c Curve) transposeToAxes(x []uint32) {
	n := c.dims
	limit := uint32(2) << uint(c.bits-1)
	// Gray decode.
	t := x[n-1] >> 1
	for i := n - 1; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t
	// Undo excess work.
	for q := uint32(2); q != limit; q <<= 1 {
		p := q - 1
		for i := n - 1; i >= 0; i-- {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
}

// interleave packs the transposed representation into a single index:
// bit (bits-1-j) of every axis, axis 0 first, is emitted MSB-first.
func (c Curve) interleave(x []uint32) uint64 {
	var out uint64
	for j := c.bits - 1; j >= 0; j-- {
		for i := 0; i < c.dims; i++ {
			out = out<<1 | uint64((x[i]>>uint(j))&1)
		}
	}
	return out
}

// deinterleave is the inverse of interleave.
func (c Curve) deinterleave(index uint64) []uint32 {
	x := make([]uint32, c.dims)
	pos := uint(c.dims*c.bits - 1)
	for j := c.bits - 1; j >= 0; j-- {
		for i := 0; i < c.dims; i++ {
			bit := (index >> pos) & 1
			x[i] |= uint32(bit) << uint(j)
			pos--
		}
	}
	return x
}

// Quantize maps continuous values (each clamped into [0, max]) onto the
// curve's per-axis grid. It is the bridge from raw landmark RTT vectors to
// grid coordinates. max must be positive; values has length dims.
func (c Curve) Quantize(values []float64, max float64) ([]uint32, error) {
	out := make([]uint32, c.dims)
	if err := c.QuantizeInto(out, values, max); err != nil {
		return nil, err
	}
	return out, nil
}

// QuantizeInto is Quantize writing into out, which must have length dims.
func (c Curve) QuantizeInto(out []uint32, values []float64, max float64) error {
	if len(values) != c.dims || len(out) != c.dims {
		return fmt.Errorf("hilbert: got %d values into %d coords, want %d", len(values), len(out), c.dims)
	}
	if max <= 0 {
		return fmt.Errorf("hilbert: max = %v, need > 0", max)
	}
	cells := float64(c.CellsPerAxis())
	for i, v := range values {
		if v < 0 {
			v = 0
		}
		if v > max {
			v = max
		}
		cell := uint32(v / max * cells)
		if cell >= c.CellsPerAxis() {
			cell = c.CellsPerAxis() - 1
		}
		out[i] = cell
	}
	return nil
}
