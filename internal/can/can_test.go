package can

import (
	"math"
	"testing"

	"gsso/internal/simrand"
	"gsso/internal/topology"
)

func TestPointValid(t *testing.T) {
	cases := []struct {
		name string
		p    Point
		d    int
		ok   bool
	}{
		{"ok", Point{0.5, 0.5}, 2, true},
		{"zero", Point{0, 0}, 2, true},
		{"wrong-dim", Point{0.5}, 2, false},
		{"negative", Point{-0.1, 0}, 2, false},
		{"one", Point{1, 0}, 2, false},
		{"nan", Point{math.NaN(), 0}, 2, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.p.Valid(tc.d); got != tc.ok {
				t.Fatalf("Valid = %v, want %v", got, tc.ok)
			}
		})
	}
}

func TestRandomPoint(t *testing.T) {
	rng := simrand.New(1)
	for i := 0; i < 100; i++ {
		p := RandomPoint(3, rng)
		if !p.Valid(3) {
			t.Fatalf("invalid random point %v", p)
		}
	}
}

func TestPathOperations(t *testing.T) {
	var p Path
	p = p.child(0).child(1).child(1).child(0) // 0110
	if p.Len != 4 || p.String() != "0110" {
		t.Fatalf("path = %s len %d", p, p.Len)
	}
	if p.Bit(0) != 0 || p.Bit(1) != 1 || p.Bit(2) != 1 || p.Bit(3) != 0 {
		t.Fatal("Bit() wrong")
	}
	if !p.HasPrefix(p.Prefix(2)) {
		t.Fatal("prefix not recognized")
	}
	if !p.HasPrefix(Path{}) {
		t.Fatal("empty path should prefix everything")
	}
	q := Path{}.child(0).child(0)
	if p.HasPrefix(q) {
		t.Fatal("false prefix accepted")
	}
	if got := p.CommonPrefixLen(q); got != 1 {
		t.Fatalf("CommonPrefixLen = %d, want 1", got)
	}
	if got := p.CommonPrefixLen(p); got != 4 {
		t.Fatalf("CommonPrefixLen self = %d", got)
	}
	if p.Prefix(10).Len != 4 {
		t.Fatal("Prefix beyond Len should clamp")
	}
}

func TestPathPrefixDeep(t *testing.T) {
	// Exercise the 64-bit boundary of prefix masks.
	var p Path
	for i := 0; i < 64; i++ {
		p = p.child(i % 2)
	}
	if p.Len != 64 {
		t.Fatalf("Len = %d", p.Len)
	}
	if !p.HasPrefix(p.Prefix(64)) || !p.HasPrefix(p.Prefix(63)) {
		t.Fatal("deep prefixes broken")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Fatal("dim 0 accepted")
	}
	if _, err := New(17); err == nil {
		t.Fatal("dim 17 accepted")
	}
	o, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	if o.Dim() != 2 || o.Size() != 0 {
		t.Fatal("fresh overlay wrong")
	}
}

func TestEmptyOverlayLookup(t *testing.T) {
	o, _ := New(2)
	if o.Lookup(Point{0.5, 0.5}) != nil {
		t.Fatal("empty overlay returned a member")
	}
	if o.Lookup(Point{2, 2}) != nil {
		t.Fatal("invalid point returned a member")
	}
}

func TestFirstJoinOwnsEverything(t *testing.T) {
	o, _ := New(2)
	m, err := o.Join(100, Point{0.3, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if o.Size() != 1 {
		t.Fatalf("Size = %d", o.Size())
	}
	if m.Volume() != 1 {
		t.Fatalf("first member volume = %v", m.Volume())
	}
	if o.Lookup(Point{0.99, 0.01}) != m {
		t.Fatal("first member does not own the whole space")
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestJoinSplitsZone(t *testing.T) {
	o, _ := New(2)
	m1, _ := o.Join(1, Point{0.25, 0.5})
	m2, err := o.Join(2, Point{0.75, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Split along dim 0 at 0.5: m2 takes right half.
	if m1.Volume() != 0.5 || m2.Volume() != 0.5 {
		t.Fatalf("volumes %v, %v", m1.Volume(), m2.Volume())
	}
	if o.Lookup(Point{0.9, 0.9}) != m2 || o.Lookup(Point{0.1, 0.1}) != m1 {
		t.Fatal("halves owned by the wrong members")
	}
	if m1.NeighborCount() != 1 || m2.Neighbors()[0] != m1 {
		t.Fatal("halves not neighbors")
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestJoinInvalidPoint(t *testing.T) {
	o, _ := New(2)
	if _, err := o.Join(1, Point{1.5, 0}); err == nil {
		t.Fatal("invalid point accepted")
	}
}

func TestManyJoinsInvariants(t *testing.T) {
	for _, dim := range []int{1, 2, 3} {
		o, _ := New(dim)
		rng := simrand.New(uint64(dim) * 11)
		for i := 0; i < 60; i++ {
			if _, err := o.JoinRandom(topology.NodeID(i), rng); err != nil {
				t.Fatal(err)
			}
		}
		if o.Size() != 60 {
			t.Fatalf("Size = %d", o.Size())
		}
		if err := o.CheckInvariants(); err != nil {
			t.Fatalf("dim %d: %v", dim, err)
		}
	}
}

// TestCheckInvariantsRejectsCorruption: the checker the fuzz target leans
// on must notice a member whose back-pointers disagree with the tree and a
// Size() the tree disagrees with — the state a join or takeover still
// writes by hand now that neighbor lists are derived.
func TestCheckInvariantsRejectsCorruption(t *testing.T) {
	build := func() *Overlay {
		o, _ := New(2)
		rng := simrand.New(4)
		for i := 0; i < 16; i++ {
			if _, err := o.JoinRandom(topology.NodeID(i), rng); err != nil {
				t.Fatal(err)
			}
		}
		if err := o.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return o
	}
	other, _ := New(2)
	corruptions := []struct {
		name    string
		corrupt func(o *Overlay)
	}{
		{"owner back-pointer", func(o *Overlay) { o.Members()[3].owner = other }},
		{"leaf back-pointer", func(o *Overlay) {
			ms := o.Members()
			ms[3].leaf = ms[4].leaf
		}},
		{"stale Size()", func(o *Overlay) { o.size++ }},
	}
	for _, c := range corruptions {
		o := build()
		c.corrupt(o)
		if err := o.CheckInvariants(); err == nil {
			t.Errorf("%s corruption accepted", c.name)
		}
	}
}

func TestLookupFindsContainingZone(t *testing.T) {
	o, _ := New(2)
	rng := simrand.New(3)
	for i := 0; i < 40; i++ {
		if _, err := o.JoinRandom(topology.NodeID(i), rng); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		p := RandomPoint(2, rng)
		m := o.Lookup(p)
		if m == nil || !m.Contains(p) {
			t.Fatalf("Lookup(%v) returned non-containing member", p)
		}
	}
}

func TestRouteReachesOwner(t *testing.T) {
	for _, dim := range []int{2, 3} {
		o, _ := New(dim)
		rng := simrand.New(uint64(dim))
		for i := 0; i < 80; i++ {
			if _, err := o.JoinRandom(topology.NodeID(i), rng); err != nil {
				t.Fatal(err)
			}
		}
		members := o.Members()
		for i := 0; i < 60; i++ {
			from := members[rng.Intn(len(members))]
			target := RandomPoint(dim, rng)
			path, err := o.Route(from, target)
			if err != nil {
				t.Fatal(err)
			}
			if path[0] != from {
				t.Fatal("path does not start at source")
			}
			last := path[len(path)-1]
			if !last.Contains(target) {
				t.Fatalf("route ended at non-owner of %v", target)
			}
			if last != o.Lookup(target) {
				t.Fatal("route destination disagrees with Lookup")
			}
			// Consecutive hops must be neighbors.
			for h := 1; h < len(path); h++ {
				isNb := false
				for _, nb := range path[h-1].Neighbors() {
					if nb == path[h] {
						isNb = true
						break
					}
				}
				if !isNb {
					t.Fatalf("hop %d is not a neighbor of hop %d", h, h-1)
				}
			}
		}
	}
}

func TestRouteValidation(t *testing.T) {
	o, _ := New(2)
	m, _ := o.Join(1, Point{0.5, 0.5})
	if _, err := o.Route(nil, Point{0.1, 0.1}); err == nil {
		t.Fatal("nil source accepted")
	}
	if _, err := o.Route(m, Point{9, 9}); err == nil {
		t.Fatal("invalid target accepted")
	}
	// Single member: zero-hop route.
	path, err := o.Route(m, Point{0.9, 0.9})
	if err != nil || len(path) != 1 {
		t.Fatalf("self route = %v, %v", path, err)
	}
}

func TestRouteHopScaling(t *testing.T) {
	// Average CAN hops grow roughly as (d/4) * N^(1/d); mainly we check
	// d=2 at N=256 stays well under N and above 1.
	o, _ := New(2)
	rng := simrand.New(5)
	for i := 0; i < 256; i++ {
		if _, err := o.JoinRandom(topology.NodeID(i), rng); err != nil {
			t.Fatal(err)
		}
	}
	members := o.Members()
	total := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		from := members[rng.Intn(len(members))]
		path, err := o.Route(from, RandomPoint(2, rng))
		if err != nil {
			t.Fatal(err)
		}
		total += len(path) - 1
	}
	avg := float64(total) / trials
	// (2/4)*sqrt(256) = 8; allow generous slack for zone irregularity.
	if avg < 2 || avg > 20 {
		t.Fatalf("avg hops = %v, expected ~8", avg)
	}
	t.Logf("avg hops at N=256, d=2: %.2f", avg)
}

// uniformGrid builds an overlay of 2^depth equal zones: level by level,
// every member's zone is halved by a join at the center of its upper half.
func uniformGrid(t *testing.T, dim, depth int) *Overlay {
	t.Helper()
	o, _ := New(dim)
	host := topology.NodeID(0)
	if _, err := o.Join(host, make(Point, dim)); err != nil {
		t.Fatal(err)
	}
	for level := 0; level < depth; level++ {
		k := level % dim
		for _, m := range o.Members() {
			host++
			p := m.ZoneCenter()
			p[k] = (p[k] + m.ZoneHi()[k]) / 2
			if _, err := o.Join(host, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if want := 1 << depth; o.Size() != want {
		t.Fatalf("grid has %d zones, want %d", o.Size(), want)
	}
	return o
}

// TestRouteDeterministicOnUniformGrid: on a uniform grid many hops have
// two neighbors at exactly the same distance from the target (a diagonal
// step can go either way first). The choice among them must not depend on
// anything but the overlay, so two identically built grids route the same
// seeded pairs along the same members, and every tie goes to the neighbor
// with the lowest zone path.
func TestRouteDeterministicOnUniformGrid(t *testing.T) {
	const pairs = 1000
	routes := func() [][]*Member {
		o := uniformGrid(t, 2, 10)
		members := o.Members()
		rng := simrand.New(11)
		out := make([][]*Member, pairs)
		for i := range out {
			from := members[rng.Intn(len(members))]
			to := members[rng.Intn(len(members))]
			path, err := o.Route(from, to.ZoneCenter())
			if err != nil {
				t.Fatal(err)
			}
			out[i] = path
		}
		return out
	}
	a, b := routes(), routes()
	ties := 0
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("pair %d: %d hops, then %d hops", i, len(a[i])-1, len(b[i])-1)
		}
		target := a[i][len(a[i])-1].ZoneCenter()
		visited := map[topology.NodeID]bool{}
		for h, m := range a[i] {
			if m.Host != b[i][h].Host {
				t.Fatalf("pair %d hop %d: host %d, then host %d", i, h, m.Host, b[i][h].Host)
			}
			visited[m.Host] = true
			if h+1 == len(a[i]) {
				break
			}
			next := a[i][h+1]
			for _, nb := range m.Neighbors() {
				if nb == next || visited[nb.Host] || m.owner.boxDist(nb.leaf, target) != m.owner.boxDist(next.leaf, target) {
					continue
				}
				ties++
				if pathLess(nb.Path(), next.Path()) {
					t.Fatalf("pair %d hop %d: took zone %s over the equally close %s", i, h, next.Path(), nb.Path())
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no hop had two equally close neighbors; the grid is not exercising the tie-break")
	}
}

func TestDepartSiblingLeaf(t *testing.T) {
	o, _ := New(2)
	m1, _ := o.Join(1, Point{0.25, 0.5})
	m2, _ := o.Join(2, Point{0.75, 0.5})
	if err := o.Depart(m2); err != nil {
		t.Fatal(err)
	}
	if o.Size() != 1 {
		t.Fatalf("Size = %d", o.Size())
	}
	if m1.Volume() != 1 {
		t.Fatalf("survivor volume = %v", m1.Volume())
	}
	if o.Lookup(Point{0.9, 0.9}) != m1 {
		t.Fatal("survivor does not own the merged zone")
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDepartSurvivorIsSibling(t *testing.T) {
	// Departing the *left* child must leave the right child's member in
	// charge, and vice versa — never the departed member.
	o, _ := New(2)
	m1, _ := o.Join(1, Point{0.25, 0.5})
	m2, _ := o.Join(2, Point{0.75, 0.5})
	if err := o.Depart(m1); err != nil {
		t.Fatal(err)
	}
	if o.Lookup(Point{0.1, 0.1}) != m2 {
		t.Fatal("departed member still owns space")
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDepartWithRelocation(t *testing.T) {
	// Build a tree where the departing zone's sibling is internal, forcing
	// the relocation path.
	o, _ := New(1)
	mA, _ := o.Join(1, Point{0.1}) // will own [0, .5) after next join
	mB, _ := o.Join(2, Point{0.9}) // owns [.5, 1)
	mC, _ := o.Join(3, Point{0.6}) // splits [.5,1) -> B keeps [.5,.75)? C takes [.5,.75) or [.75,1)
	_ = mB
	_ = mC
	if err := o.Depart(mA); err != nil {
		t.Fatal(err)
	}
	if o.Size() != 2 {
		t.Fatalf("Size = %d", o.Size())
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// All of the space is still owned.
	for _, x := range []float64{0.05, 0.3, 0.55, 0.8, 0.99} {
		if o.Lookup(Point{x}) == nil {
			t.Fatalf("point %v unowned after departure", x)
		}
	}
}

func TestDepartUnknownMember(t *testing.T) {
	o, _ := New(2)
	o.Join(1, Point{0.5, 0.5})
	stranger := &Member{Host: 99}
	if err := o.Depart(stranger); err == nil {
		t.Fatal("unknown member departed without error")
	}
}

func TestDepartLastMember(t *testing.T) {
	o, _ := New(2)
	m, _ := o.Join(1, Point{0.5, 0.5})
	if err := o.Depart(m); err != nil {
		t.Fatal(err)
	}
	if o.Size() != 0 {
		t.Fatal("overlay not empty")
	}
	if o.Lookup(Point{0.5, 0.5}) != nil {
		t.Fatal("empty overlay returned member")
	}
	// Overlay remains usable.
	if _, err := o.Join(2, Point{0.2, 0.2}); err != nil {
		t.Fatal(err)
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestChurnInvariants(t *testing.T) {
	o, _ := New(2)
	rng := simrand.New(21)
	var alive []*Member
	next := topology.NodeID(0)
	for step := 0; step < 300; step++ {
		if len(alive) == 0 || rng.Bool(0.6) {
			m, err := o.JoinRandom(next, rng)
			if err != nil {
				t.Fatal(err)
			}
			next++
			alive = append(alive, m)
		} else {
			i := rng.Intn(len(alive))
			if err := o.Depart(alive[i]); err != nil {
				t.Fatal(err)
			}
			alive[i] = alive[len(alive)-1]
			alive = alive[:len(alive)-1]
		}
		if step%50 == 49 {
			if err := o.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if o.Size() != len(alive) {
		t.Fatalf("Size = %d, tracked %d", o.Size(), len(alive))
	}
}

func TestMembersUnder(t *testing.T) {
	o, _ := New(2)
	rng := simrand.New(9)
	for i := 0; i < 32; i++ {
		if _, err := o.JoinRandom(topology.NodeID(i), rng); err != nil {
			t.Fatal(err)
		}
	}
	all := o.MembersUnder(Path{})
	if len(all) != 32 {
		t.Fatalf("MembersUnder(root) = %d members", len(all))
	}
	left := o.MembersUnder(Path{}.child(0))
	right := o.MembersUnder(Path{}.child(1))
	if len(left)+len(right) != 32 {
		t.Fatalf("halves hold %d + %d members", len(left), len(right))
	}
	for _, m := range left {
		if m.Path().Bit(0) != 0 {
			t.Fatal("left subtree contains right-side member")
		}
	}
	// A prefix deeper than the tree on that side returns the deep leaf or nothing.
	deep := Path{}
	for i := 0; i < 30; i++ {
		deep = deep.child(0)
	}
	_ = o.MembersUnder(deep) // must not panic
}

func TestPathOf(t *testing.T) {
	o, _ := New(2)
	rng := simrand.New(4)
	for i := 0; i < 16; i++ {
		if _, err := o.JoinRandom(topology.NodeID(i), rng); err != nil {
			t.Fatal(err)
		}
	}
	p := Point{0.3, 0.6}
	path, err := o.PathOf(p)
	if err != nil {
		t.Fatal(err)
	}
	if o.Lookup(p).Path() != path {
		t.Fatal("PathOf disagrees with Lookup")
	}
	if _, err := o.PathOf(Point{2, 2}); err == nil {
		t.Fatal("invalid point accepted")
	}
}

func TestLeafPathsPartition(t *testing.T) {
	o, _ := New(3)
	rng := simrand.New(8)
	for i := 0; i < 50; i++ {
		if _, err := o.JoinRandom(topology.NodeID(i), rng); err != nil {
			t.Fatal(err)
		}
	}
	var paths []Path
	for _, m := range o.Members() {
		paths = append(paths, m.Path())
	}
	if len(paths) != 50 {
		t.Fatalf("%d leaves for 50 members", len(paths))
	}
	// No leaf path is a prefix of another (prefix-free <=> partition).
	for i, a := range paths {
		for j, b := range paths {
			if i != j && b.HasPrefix(a) {
				t.Fatalf("leaf %s is prefix of leaf %s", a, b)
			}
		}
	}
}

func TestTorusDist(t *testing.T) {
	cases := []struct {
		x, lo, hi, want float64
	}{
		{0.5, 0.4, 0.6, 0},     // inside
		{0.3, 0.4, 0.6, 0.1},   // left of interval
		{0.95, 0.0, 0.1, 0.05}, // wraps around 1.0
		{0.7, 0.4, 0.6, 0.1},   // right of interval
	}
	for _, tc := range cases {
		if got := torusDist(tc.x, tc.lo, tc.hi); math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("torusDist(%v,[%v,%v)) = %v, want %v", tc.x, tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestMemberAccessors(t *testing.T) {
	o, _ := New(2)
	m, _ := o.Join(7, Point{0.2, 0.8})
	lo, hi := m.ZoneLo(), m.ZoneHi()
	lo[0] = 99 // must be copies
	hi[0] = 99
	if m.ZoneLo()[0] == 99 || m.ZoneHi()[0] == 99 {
		t.Fatal("zone bounds leaked")
	}
	if m.Depth() != 0 {
		t.Fatalf("Depth = %d", m.Depth())
	}
	if m.String() == "" {
		t.Fatal("String empty")
	}
	if m.JoinPoint[0] != 0.2 {
		t.Fatal("join point not recorded")
	}
}

func BenchmarkJoin1024(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o, _ := New(2)
		rng := simrand.New(1)
		for j := 0; j < 1024; j++ {
			if _, err := o.JoinRandom(topology.NodeID(j), rng); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkRoute(b *testing.B) {
	o, _ := New(2)
	rng := simrand.New(1)
	for j := 0; j < 1024; j++ {
		if _, err := o.JoinRandom(topology.NodeID(j), rng); err != nil {
			b.Fatal(err)
		}
	}
	members := o.Members()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := members[i%len(members)]
		if _, err := o.Route(from, RandomPoint(2, rng)); err != nil {
			b.Fatal(err)
		}
	}
}
