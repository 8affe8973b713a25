package can

import (
	"math"
	"slices"
	"testing"

	"gsso/internal/simrand"
	"gsso/internal/topology"
)

// The float reference below is the rule zones followed when they stored
// their bounds: a split at (lo+hi)/2 in dimension depth mod dim, a point
// going right when p[k] is not below it, a zone's center at (lo+hi)/2 and
// its volume the product of its widths. It walks the overlay's own split
// tree, so it checks how a point or a path is placed in that tree and what
// geometry comes out, against the fixed-point rule the overlay ships.
//
// The float midpoint of split j (0-based) of a dimension is exact for
// j ≤ 52: the interval is [c·2^−j, (c+1)·2^−j), and lo+hi = (2c+1)·2^−j
// needs j+1 ≤ 53 significant bits. Past that (reachable only in dimension
// 1, where one dimension takes all 64 splits) the float rule rounds and
// the fixed-point rule is the exact one, so the reference stops comparing
// there.
const refExactSplits = 53 // splits j = 0..52 of a dimension are exact

// refBounds is the reference's float extent of a zone, and how many times
// each dimension was split on the way to it.
type refBounds struct {
	lo, hi Point
	splits []int
}

func newRefBounds(dim int) refBounds {
	b := refBounds{lo: make(Point, dim), hi: make(Point, dim), splits: make([]int, dim)}
	for k := range b.hi {
		b.hi[k] = 1
	}
	return b
}

// exact reports whether every bound is exact under the float rule.
func (b refBounds) exact() bool {
	for _, j := range b.splits {
		if j > refExactSplits {
			return false
		}
	}
	return true
}

// take narrows b to child bit of a split in dimension k at (lo+hi)/2.
func (b refBounds) take(k, bit int) {
	mid := (b.lo[k] + b.hi[k]) / 2
	if bit == 0 {
		b.hi[k] = mid
	} else {
		b.lo[k] = mid
	}
	b.splits[k]++
}

// refDescend descends o's tree to p by float comparisons. It returns the
// path it took and whether it reached a leaf; it stops early, at the first
// split that is not exact under the float rule.
func refDescend(o *Overlay, p Point) (Path, bool) {
	b := newRefBounds(o.dim)
	z := o.root
	for !z.isLeaf() {
		k := z.path.Len % o.dim
		if b.splits[k] >= refExactSplits {
			return z.path, false
		}
		bit := 0
		if p[k] >= (b.lo[k]+b.hi[k])/2 {
			bit = 1
		}
		b.take(k, bit)
		z = &z.kids[bit]
	}
	return z.path, true
}

// refZone returns the float extent of the zone a path names.
func refZone(dim int, path Path) refBounds {
	b := newRefBounds(dim)
	for i := 0; i < path.Len; i++ {
		b.take(i%dim, path.Bit(i))
	}
	return b
}

// TestDecisionsBitByBit pins decisions, which places a coordinate byte at a
// time, to its definition one decision at a time — decision i is bit
// 63−⌊i/dim⌋ of fixed(p[i mod dim]) — for every dimension an overlay may
// have and every prefix length.
func TestDecisionsBitByBit(t *testing.T) {
	rng := simrand.New(11)
	for dim := 1; dim <= 16; dim++ {
		o, err := New(dim)
		if err != nil {
			t.Fatal(err)
		}
		for range 50 {
			p := RandomPoint(dim, rng)
			p[rng.Intn(dim)] = math.Nextafter(1, 0)
			want := uint64(0)
			for i := 0; i < MaxDepth; i++ {
				want |= fixed(p[i%dim]) >> (63 - i/dim) & 1 << (63 - i)
			}
			for n := 0; n <= MaxDepth; n++ {
				// Only the first n bits are defined; a shift by 64 is 0.
				if got := o.decisions(p, n); got>>(64-n) != want>>(64-n) {
					t.Fatalf("dim %d, %v: decisions(%d) = %064b, want prefix of %064b", dim, p, n, got, want)
				}
			}
		}
	}
}

// zoneScript reads the fuzz input: the first byte picks dim 1–4, and every
// further coordinate takes a family byte and two operand bytes.
type zoneScript struct {
	data []byte
	pts  []Point
}

func (s *zoneScript) byte() (byte, bool) {
	if len(s.data) == 0 {
		return 0, false
	}
	b := s.data[0]
	s.data = s.data[1:]
	return b, true
}

// dyadic returns a value c·2^−j from two bytes: j in [0, 64] and c a
// scrambled j-bit number, so the point lies on a split plane at depth j.
func dyadic(a, b byte) float64 {
	j := int(a) % 65
	c := (uint64(b) + 1) * 0x9e3779b97f4a7c15 >> (64 - j)
	return float64(c) * pow2(j)
}

// coord draws one coordinate in [0, 1) from an adversarial family.
func (s *zoneScript) coord(k int) (float64, bool) {
	f, ok1 := s.byte()
	a, ok2 := s.byte()
	b, ok3 := s.byte()
	if !ok1 || !ok2 || !ok3 {
		return 0, false
	}
	var x float64
	switch f % 8 {
	case 0: // a split plane
		x = dyadic(a, b)
	case 1:
		x = 0
	case 2:
		x = math.Nextafter(1, 0)
	case 3: // subnormal
		x = float64(uint16(a)<<8|uint16(b)) * math.SmallestNonzeroFloat64
	case 4: // below 2^-64: no decision tells it from 0
		x = math.Ldexp(float64(uint16(a)<<8|uint16(b)), -80)
	case 5: // one ulp either side of a split plane
		x = dyadic(a, b)
		if f&8 == 0 {
			x = math.Nextafter(x, 0)
		} else {
			x = math.Nextafter(x, 1)
		}
	case 6: // a scrambled float
		x = float64((uint64(a)<<8|uint64(b))*0x9e3779b97f4a7c15>>11) / (1 << 53)
	case 7: // an earlier point's coordinate, nudged by 0 or 1 ulp
		if len(s.pts) == 0 {
			break
		}
		x = s.pts[int(a)%len(s.pts)][k]
		switch b % 3 {
		case 1:
			x = math.Nextafter(x, 0)
		case 2:
			x = math.Nextafter(x, 1)
		}
	}
	if x < 0 || x >= 1 || math.IsNaN(x) {
		x = 0
	}
	return x, true
}

// runZoneScript joins the scripted points one by one. After every join it
// checks what the join changed — the joined point's placement and the
// geometry of both halves of the split — and at the end every member's
// zone, every point's placement and CheckInvariants, all bit for bit
// against the float reference wherever it is exact.
func runZoneScript(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	dim := 1 + int(data[0])%4
	s := &zoneScript{data: data[1:]}
	o, err := New(dim)
	if err != nil {
		t.Fatal(err)
	}
	// 72 joins at one point of dimension 1 reach MaxDepth.
	for host := topology.NodeID(0); len(s.pts) < 72; host++ {
		p := make(Point, dim)
		ok := true
		for k := range p {
			p[k], ok = s.coord(k)
			if !ok {
				break
			}
		}
		if !ok {
			break
		}
		s.pts = append(s.pts, p)
		m, err := o.Join(host, p)
		if err != nil {
			// Only a leaf at MaxDepth refuses a join.
			if path, _ := o.PathOf(p); path.Len != MaxDepth {
				t.Fatalf("join of %v refused at depth %d: %v", p, path.Len, err)
			}
			continue
		}
		if o.Lookup(p) != m {
			t.Fatalf("join at %v: Lookup returns another member", p)
		}
		checkPlacement(t, o, p)
		if m.leaf == o.root {
			checkZone(t, m)
			continue
		}
		halves := o.parentOf(m.leaf).kids
		checkZone(t, halves[0].member)
		checkZone(t, halves[1].member)
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, m := range o.Members() {
		checkZone(t, m)
	}
	for _, p := range s.pts {
		checkPlacement(t, o, p)
	}
}

// checkZone compares m's corners, center and volume with the float
// reference, and requires m to contain its lower corner and center.
func checkZone(t *testing.T, m *Member) {
	t.Helper()
	b := refZone(m.owner.dim, m.Path())
	if !b.exact() {
		return
	}
	lo, hi, center := m.ZoneLo(), m.ZoneHi(), m.ZoneCenter()
	vol := 1.0
	for k := range lo {
		vol *= b.hi[k] - b.lo[k]
		if math.Float64bits(lo[k]) != math.Float64bits(b.lo[k]) ||
			math.Float64bits(hi[k]) != math.Float64bits(b.hi[k]) ||
			math.Float64bits(center[k]) != math.Float64bits((b.lo[k]+b.hi[k])/2) {
			t.Fatalf("zone %s dim %d: lo/center/hi %v %v %v, reference %v %v %v",
				m.Path(), k, lo[k], center[k], hi[k], b.lo[k], (b.lo[k]+b.hi[k])/2, b.hi[k])
		}
	}
	if got := m.Volume(); math.Float64bits(got) != math.Float64bits(vol) {
		t.Fatalf("zone %s: Volume %v, reference %v", m.Path(), got, vol)
	}
	if !m.Contains(lo) || slices.Max(b.splits) < refExactSplits && !m.Contains(center) {
		t.Fatalf("zone %s does not contain its own lower corner or center", m.Path())
	}
}

// checkPlacement compares PathOf(p) with the float descent, and Contains(p)
// of p's owner and the zones around it, the ones p could be misplaced
// into, with the float bounds.
func checkPlacement(t *testing.T, o *Overlay, p Point) {
	t.Helper()
	want, whole := refDescend(o, p)
	got, err := o.PathOf(p)
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasPrefix(want) || whole && got != want {
		t.Fatalf("PathOf(%v) = %s, the float descent takes %s (to a leaf: %v)", p, got, want, whole)
	}
	owner := o.Lookup(p)
	if owner == nil || owner.Path() != got {
		t.Fatalf("Lookup(%v) disagrees with PathOf", p)
	}
	for _, m := range append(owner.Neighbors(), owner) {
		b := refZone(o.dim, m.Path())
		if !b.exact() {
			continue
		}
		in := true
		for k := range p {
			in = in && b.lo[k] <= p[k] && p[k] < b.hi[k]
		}
		if m.Contains(p) != in || in != (m == owner) {
			t.Fatalf("zone %s: Contains(%v) = %v, float bounds say %v, owner %s",
				m.Path(), p, m.Contains(p), in, owner.Path())
		}
	}
}

// FuzzZoneGeometry searches for join sequences whose zones the fixed-point
// geometry places or measures differently from the float rule, within the
// splits where that rule is exact. Seeds live in testdata/fuzz. Run with a
// budget via `go test -fuzz FuzzZoneGeometry -fuzztime 30s ./internal/can`.
func FuzzZoneGeometry(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		runZoneScript(t, data)
	})
}
