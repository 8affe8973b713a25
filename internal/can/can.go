// Package can implements CAN (content-addressable network), the DHT that
// partitions a d-dimensional Cartesian unit torus into zones, one per
// member (Ratnasamy et al., SIGCOMM 2001).
//
// Zones arise from recursive binary midpoint splits with the split
// dimension cycling (depth mod d), so every zone is identified by its
// split path — the sequence of left/right choices from the root. Path
// prefixes are exactly the paper's "high-order zones" (and the analogue of
// Pastry's nodeId prefixes); package ecan builds its expressway routing on
// top of them.
//
// A leaf's neighbours are not stored: they are a function of the split
// tree, derived when first asked for and memoized per leaf until the next
// join or departure.
//
// Splits are dyadic midpoints, so a zone's extent is a function of its
// path, and the decisions on a point's path are the bit-interleaved
// (Z-order) key of its coordinates in 64-bit fixed point: a zone stores
// neither bounds nor split planes, and a prefix directory indexed by the
// key starts every point and path descent at about the leaves' depth.
// Zones and members live in blocks that make no heap object per member
// (DESIGN §5c).
//
// Overlays are not safe for concurrent mutation; concurrent readers are
// fine once construction settles.
package can

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"gsso/internal/simrand"
	"gsso/internal/topology"
)

// MaxDepth bounds the split-tree depth so zone paths fit in a uint64.
const MaxDepth = 64

// Point is a location in the unit cube [0,1)^d.
type Point []float64

// Valid reports whether the point has dimension d with all coordinates in
// [0, 1).
func (p Point) Valid(d int) bool {
	if len(p) != d {
		return false
	}
	for _, x := range p {
		if x < 0 || x >= 1 || math.IsNaN(x) {
			return false
		}
	}
	return true
}

// RandomPoint draws a uniform point in [0,1)^d.
func RandomPoint(d int, rng *simrand.Source) Point {
	p := make(Point, d)
	for i := range p {
		p[i] = rng.Float64()
	}
	return p
}

// Path identifies a zone (or region) of the split tree: the first Len bits
// of Bits, most significant decision first (bit i is Bits>>(63-i)&1).
type Path struct {
	Bits uint64
	Len  int
}

// child extends the path by one decision bit.
func (p Path) child(bit int) Path {
	return Path{Bits: p.Bits | uint64(bit)<<(63-p.Len), Len: p.Len + 1}
}

// Bit returns decision i (0-based from the root).
func (p Path) Bit(i int) int { return int(p.Bits>>(63-i)) & 1 }

// HasPrefix reports whether q is a prefix of p.
func (p Path) HasPrefix(q Path) bool {
	if q.Len > p.Len {
		return false
	}
	if q.Len == 0 {
		return true
	}
	mask := ^uint64(0) << (64 - q.Len)
	return p.Bits&mask == q.Bits&mask
}

// CommonPrefixLen returns the number of leading decisions p and q share.
func (p Path) CommonPrefixLen(q Path) int {
	n := p.Len
	if q.Len < n {
		n = q.Len
	}
	for i := 0; i < n; i++ {
		if p.Bit(i) != q.Bit(i) {
			return i
		}
	}
	return n
}

// Prefix returns the first n decisions of p.
func (p Path) Prefix(n int) Path {
	if n >= p.Len {
		return p
	}
	mask := ^uint64(0)
	if n < 64 {
		mask <<= 64 - n
	}
	return Path{Bits: p.Bits & mask, Len: n}
}

// String renders the path as a bit string, e.g. "0110".
func (p Path) String() string {
	buf := make([]byte, p.Len)
	for i := 0; i < p.Len; i++ {
		buf[i] = byte('0' + p.Bit(i))
	}
	return string(buf)
}

// Member is an overlay node: a participant host that owns one leaf zone.
type Member struct {
	// Host is the physical host the member runs on.
	Host topology.NodeID
	// JoinPoint is the random point the member routed to at join time.
	JoinPoint Point

	leaf  *zone    // nil once the member has left
	owner *Overlay // the overlay leaf belongs to
}

// Path returns the member's current zone path.
func (m *Member) Path() Path { return m.leaf.path }

// ZoneLo returns the member zone's lower corner (fresh slice).
func (m *Member) ZoneLo() Point { return m.owner.corner(m.leaf.path, 0) }

// ZoneHi returns the member zone's upper corner (fresh slice).
func (m *Member) ZoneHi() Point { return m.owner.corner(m.leaf.path, 1) }

// Volume returns the member zone's volume (fraction of the whole space).
func (m *Member) Volume() float64 { return math.Ldexp(1, -m.leaf.path.Len) }

// ZoneCenter returns the center point of the member's zone, a valid routing
// target for it: it lies strictly inside while no dimension is split more
// than 52 times (only dimension 1 can be, with zones too thin for a float).
func (m *Member) ZoneCenter() Point { return m.owner.corner(m.leaf.path, 0.5) }

// Depth returns the member zone's split depth.
func (m *Member) Depth() int { return m.leaf.path.Len }

// Neighbors returns the member's CAN neighbors (zones abutting its zone in
// exactly one dimension and overlapping in all others), each once. Fresh
// slice, ordered by face: dimensions in increasing order, the lo face
// before the hi face, and within a face depth-first through the split
// tree, lower half first. The order is a function of the zone structure
// alone; callers that need another one sort, as expanding-ring search and
// core's crash confirmation do.
func (m *Member) Neighbors() []*Member {
	nbs := m.owner.neighbors(m.leaf)
	out := make([]*Member, len(nbs))
	for i, nb := range nbs {
		out[i] = nb.member
	}
	return out
}

// NeighborCount returns the size of the member's neighbor set.
func (m *Member) NeighborCount() int { return len(m.owner.neighbors(m.leaf)) }

// Contains reports whether the member's zone contains p (false if p is
// invalid).
func (m *Member) Contains(p Point) bool {
	return p.Valid(m.owner.dim) && m.leaf.holds(m.owner.decisions(p, m.leaf.path.Len))
}

// String implements fmt.Stringer.
func (m *Member) String() string {
	return fmt.Sprintf("member{host=%d zone=%s}", m.Host, m.leaf.path)
}

// zone is a node of the binary split tree. Internal zones have exactly two
// children, one pair from the overlay's blocks; leaf zones have a member
// (nil only for an empty overlay root). A zone's extent and split plane are
// functions of its path (see span), so neither is stored.
type zone struct {
	kids   *[2]zone // nil for a leaf
	path   Path
	member *Member
	// nbs memoizes a leaf's derived neighbors (Overlay.neighbors). Atomic
	// because concurrent readers of a settled overlay fill it.
	nbs atomic.Pointer[nbMemo]
}

// nbMemo is a leaf's neighbor list as derived at overlay generation gen.
type nbMemo struct {
	gen  uint64
	list []*zone
}

func (z *zone) isLeaf() bool { return z.kids == nil }

// pathLess is the canonical order on zone paths: by bits, then length.
// Leaf paths are prefix-free, so among leaves the bits alone decide.
func pathLess(a, b Path) bool {
	if a.Bits != b.Bits {
		return a.Bits < b.Bits
	}
	return a.Len < b.Len
}

// holds reports whether z's path is a prefix of key, the decisions of a
// root descent (at least z.path.Len of them): whether z contains the point
// key was taken from.
func (z *zone) holds(key uint64) bool {
	s := 64 - z.path.Len
	return key>>s == z.path.Bits>>s
}

// Zone geometry. Decision i halves dimension k = i mod dim for the
// j = ⌊i/dim⌋-th time, so after j splits of k a zone's extent is the dyadic
// interval [c·2^−j, (c+1)·2^−j), c its k-decisions read as a number (span):
// in fixed point, the values whose top j bits are c. A point goes right at
// split j of k iff bit 63−j of fixed(p[k]) is set, exactly, at every depth.

// fixed returns x ∈ [0, 1) in 64-bit fixed point, ⌊x·2^64⌋: exact, as x·2^64
// only shifts the exponent.
func fixed(x float64) uint64 { return uint64(x * (1 << 64)) }

// decisions returns a key whose first n ≤ MaxDepth bits are the first n
// decisions of a root descent to the valid point p, the first in the most
// significant bit (later bits may be set too). Byte m of fixed(p[k]) holds
// decisions k + dim·(8m..8m+7), which spread places.
func (o *Overlay) decisions(p Point, n int) uint64 {
	row, step := &spread[o.dim-1], 8*o.dim
	key := uint64(0)
	for k, x := range p {
		u := fixed(x)
		for at := k; at < n; at += step {
			key |= row[u>>56] >> at
			u <<= 8
		}
	}
	return key
}

// spread[d-1][b] holds byte b's bits, most significant first, at bits 63,
// 63−d, 63−2d, ... of a dimension-d key (bits past bit 0 are dropped).
var spread = func() (t [16][256]uint64) {
	for d := 1; d <= len(t); d++ {
		for b := range 256 {
			for i := 0; i < 8 && d*i < 64; i++ {
				t[d-1][b] |= uint64(b>>(7-i)&1) << (63 - d*i)
			}
		}
	}
	return t
}()

// span returns a path's extent in dimension k as the dyadic interval
// [c·2^−j, (c+1)·2^−j): j is the number of k-decisions on the path and c
// those decisions read as a binary number.
func (o *Overlay) span(path Path, k int) (c uint64, j int) {
	for i := k; i < path.Len; i += o.dim {
		c = c<<1 | path.Bits>>(63-i)&1
		j++
	}
	return c, j
}

// pow2 returns 2^−j, for 0 ≤ j ≤ MaxDepth.
func pow2(j int) float64 { return math.Float64frombits(uint64(1023-j) << 52) }

// corner returns the point (c_k+f)·2^−j_k of a path's zone (span): its lower
// corner for f = 0, its center for f = ½, its upper corner for f = 1; exact
// up to 52 splits of a dimension (53 for the corners), rounded beyond.
func (o *Overlay) corner(path Path, f float64) Point {
	pt := make(Point, o.dim)
	for k := range pt {
		c, j := o.span(path, k)
		pt[k] = (float64(c) + f) * pow2(j)
	}
	return pt
}

// Overlay is a CAN over [0,1)^dim.
type Overlay struct {
	dim  int
	root *zone
	size int    // leaves that have a member
	gen  uint64 // bumped by every structural change; dates neighbor memos

	// dir is the prefix directory: dir[x] is the deepest zone of depth at
	// most dirDepth on the path whose first dirDepth decisions are x (the
	// first decision is the most significant bit). Descents start there.
	dir      []*zone
	dirDepth int

	// Zone pairs, members and their join points come from blocks whose
	// pointers never move; pairs merged away wait in free for the next
	// splits. Members are never reused: callers may hold a departed one.
	pairs   blocks[[2]zone]
	members blocks[Member]
	floats  blocks[float64] // join points
	free    []*[2]zone
}

// blocks hands out elements of T from arrays it never grows in place, so a
// pointer to an element stays valid for the overlay's lifetime (unlike an
// element of a slice grown by append, which moves). Each new block holds an
// eighth of everything handed out before it, at least minBlock: n elements
// take O(log n) blocks, at most an eighth of them spare, and a small
// overlay makes a few small ones.
type blocks[T any] struct {
	cur   []T // the newest block; its length is what has been handed out
	total int // elements handed out from every block
	count int // blocks made
}

// minBlock is the element count of an overlay's first block of each kind.
const minBlock = 16

// take returns n fresh zeroed elements, capacity-clipped so appending to
// them cannot reach a neighbour's.
func (b *blocks[T]) take(n int) []T {
	if cap(b.cur)-len(b.cur) < n {
		b.cur = make([]T, 0, max(minBlock, b.total/8, n))
		b.count++
	}
	i := len(b.cur)
	b.cur = b.cur[:i+n]
	b.total += n
	return b.cur[i : i+n : i+n]
}

// dirDepthFor is the directory depth an overlay of n members wants:
// ⌈log2 n⌉, so the directory holds at least one slot per member and most
// descents start at or a level or two above the leaves.
func dirDepthFor(n int) int { return bits.Len(uint(max(n-1, 0))) }

// resizeDir rebuilds the directory when the overlay has outgrown its depth,
// or shrunk to well below it (the slack keeps a size that wobbles around a
// power of two from rebuilding on every join and departure).
func (o *Overlay) resizeDir() {
	d := dirDepthFor(o.size)
	if d <= o.dirDepth && d+1 >= o.dirDepth {
		return
	}
	o.dirDepth = d
	o.dir = make([]*zone, 1<<d)
	o.fillDir(o.root)
}

// fillDir points every directory slot under z at the deepest zone of depth
// at most dirDepth on its path.
func (o *Overlay) fillDir(z *zone) {
	if z.isLeaf() || z.path.Len == o.dirDepth {
		o.refill(z)
		return
	}
	o.fillDir(&z.kids[0])
	o.fillDir(&z.kids[1])
}

// refill points the directory slots on z's path at z, if z is no deeper
// than the directory; a split refills with each child, a merge with the
// parent. Path bits beyond Len are zero, so z's slots start at its bits.
func (o *Overlay) refill(z *zone) {
	if z.path.Len > o.dirDepth {
		return
	}
	first := z.path.Bits >> (64 - o.dirDepth)
	slots := o.dir[first : first+1<<(o.dirDepth-z.path.Len)]
	for i := range slots {
		slots[i] = z
	}
}

// New returns an empty CAN of the given dimensionality.
func New(dim int) (*Overlay, error) {
	if dim < 1 || dim > 16 {
		return nil, fmt.Errorf("can: dim = %d, need in [1,16]", dim)
	}
	root := &zone{}
	return &Overlay{dim: dim, root: root, dir: []*zone{root}}, nil
}

// Dim returns the overlay dimensionality.
func (o *Overlay) Dim() int { return o.dim }

// Size returns the number of members.
func (o *Overlay) Size() int { return o.size }

// Members returns all members ordered by zone path (a canonical,
// deterministic order: leaf paths are unique). Fresh slice.
//
// Determinism here is load-bearing: experiments draw "random member"
// samples by index into this slice. No sort is needed: leaf paths are
// prefix-free, so two leaves first differ at a bit both have, and a
// depth-first walk that takes child 0 before child 1 visits them in
// increasing (Bits, Len) order.
func (o *Overlay) Members() []*Member {
	return appendMembers(make([]*Member, 0, o.size), o.root)
}

// appendMembers appends the members under z in zone-path order.
func appendMembers(out []*Member, z *zone) []*Member {
	for !z.isLeaf() {
		out = appendMembers(out, &z.kids[0])
		z = &z.kids[1]
	}
	if z.member != nil {
		out = append(out, z.member)
	}
	return out
}

// leafOf descends to the leaf on the path whose decisions are key's bits,
// from its directory slot.
func (o *Overlay) leafOf(key uint64) *zone { return descend(o.dir[key>>(64-o.dirDepth)], key) }

// descend walks from z to the leaf below it on the path whose decisions are
// key's bits.
func descend(z *zone, key uint64) *zone {
	for !z.isLeaf() {
		z = &z.kids[key>>(63-z.path.Len)&1]
	}
	return z
}

// Lookup returns the member owning the zone that contains p, or nil for an
// empty overlay or an invalid point.
func (o *Overlay) Lookup(p Point) *Member {
	if !p.Valid(o.dim) {
		return nil
	}
	return o.leafOf(o.decisions(p, MaxDepth)).member
}

// PathOf returns the path of the leaf zone containing p.
func (o *Overlay) PathOf(p Point) (Path, error) {
	if !p.Valid(o.dim) {
		return Path{}, fmt.Errorf("can: invalid point %v for dim %d", p, o.dim)
	}
	return o.leafOf(o.decisions(p, MaxDepth)).path, nil
}

// Join adds a member for host at point p: the leaf zone containing p is
// split, the new member takes the half containing p, and the previous
// owner keeps the other half (the CAN join protocol).
func (o *Overlay) Join(host topology.NodeID, p Point) (*Member, error) {
	if !p.Valid(o.dim) {
		return nil, fmt.Errorf("can: invalid join point %v for dim %d", p, o.dim)
	}
	q := o.newPoint()
	copy(q, p)
	return o.join(host, q)
}

// JoinRandom joins host at a uniformly random point, drawn as RandomPoint
// draws it.
func (o *Overlay) JoinRandom(host topology.NodeID, rng *simrand.Source) (*Member, error) {
	p := o.newPoint()
	for i := range p {
		p[i] = rng.Float64()
	}
	return o.join(host, p)
}

// newPoint returns a zeroed point from the overlay's blocks.
func (o *Overlay) newPoint() Point { return o.floats.take(o.dim) }

// join is Join for a valid point the member may keep as its JoinPoint.
func (o *Overlay) join(host topology.NodeID, p Point) (*Member, error) {
	m := &o.members.take(1)[0]
	m.Host, m.JoinPoint, m.owner = host, p, o
	key := o.decisions(p, MaxDepth)
	leaf := o.leafOf(key)
	if leaf.member == nil {
		// First member adopts the whole space.
		leaf.member = m
		m.leaf = leaf
		o.size++
		o.resizeDir()
		return m, nil
	}
	if leaf.path.Len >= MaxDepth {
		return nil, fmt.Errorf("can: split depth limit %d reached", MaxDepth)
	}
	o.gen++
	// Split leaf: a merged-away pair if there is one, else a fresh one.
	var pair *[2]zone
	if n := len(o.free); n > 0 {
		pair, o.free = o.free[n-1], o.free[:n-1]
	} else {
		pair = &o.pairs.take(1)[0]
	}
	for i := range pair {
		pair[i].path = leaf.path.child(i)
		o.refill(&pair[i])
	}
	// The new member takes the half containing p, the old one the other.
	side, old := key>>(63-leaf.path.Len)&1, leaf.member
	leaf.kids, leaf.member = pair, nil
	pair[side].member, m.leaf = m, &pair[side]
	pair[1-side].member, old.leaf = old, &pair[1-side]
	o.size++
	o.resizeDir()
	return m, nil
}

// Depart removes member m, handing its zone over per the CAN departure
// protocol: if the sibling zone is a leaf the sibling's owner takes over
// the merged parent; otherwise the owner of one of a pair of sibling
// leaves inside the sibling subtree is relocated into m's zone and its old
// zone merges with its sibling.
func (o *Overlay) Depart(m *Member) error {
	_, err := o.takeover(m, nil)
	return err
}

// Handover reports the outcome of a zone takeover: who ended up owning
// the vacated zone, and every member whose zone path changed in the
// process (the successor plus, in the relocation case, the survivor whose
// zone absorbed the mover's old zone). Callers repairing dependent state
// (routing tables, region maps) need exactly this set.
type Handover struct {
	// Successor owns the departed member's former zone (nil only when the
	// last member left and the overlay is empty).
	Successor *Member
	// Relocated lists members whose zone changed, successor included.
	Relocated []*Member
}

// IsMember reports whether m currently belongs to the overlay.
func (o *Overlay) IsMember(m *Member) bool {
	return m != nil && m.leaf != nil && m.owner == o
}

// Takeover removes member m without its cooperation — the CAN ungraceful
// recovery protocol. The zone mechanics are identical to Depart (the
// split-tree analogue of the paper's smallest-neighbor takeover), but the
// caller learns who must repair what via the returned Handover.
func (o *Overlay) Takeover(m *Member) (Handover, error) {
	return o.takeover(m, nil)
}

// TakeoverAvoiding is Takeover biased against handing zones to members
// for which avoid returns true (typically: also crashed). Under cascading
// crashes a fully live handover may not exist; the operation then falls
// back to an avoided successor and stays total — a later takeover of that
// successor finishes the repair. With a nil avoid this is exactly
// Takeover, choice for choice.
func (o *Overlay) TakeoverAvoiding(m *Member, avoid func(*Member) bool) (Handover, error) {
	return o.takeover(m, avoid)
}

func (o *Overlay) takeover(m *Member, avoid func(*Member) bool) (Handover, error) {
	if !o.IsMember(m) {
		return Handover{}, errors.New("can: departing member is not in the overlay")
	}
	o.size--
	o.gen++
	defer o.resizeDir()
	leaf := m.leaf
	m.leaf, m.owner = nil, nil
	if leaf == o.root {
		leaf.member = nil // overlay now empty
		return Handover{}, nil
	}
	parent := o.parentOf(leaf)
	sibling := &parent.kids[0]
	if sibling == leaf {
		sibling = &parent.kids[1]
	}
	if sibling.isLeaf() {
		succ := sibling.member
		o.mergeChildren(parent, succ)
		return Handover{Successor: succ, Relocated: []*Member{succ}}, nil
	}
	// Relocate the owner of one leaf of a sibling-leaf pair.
	pairParent := pickLeafPair(sibling, avoid)
	mover := pairParent.kids[0].member
	survivor := pairParent.kids[1].member
	if avoid != nil && avoid(mover) && !avoid(survivor) {
		// The successor inherits m's zone; prefer a live one.
		mover, survivor = survivor, mover
	}
	o.mergeChildren(pairParent, survivor)
	leaf.member = mover
	mover.leaf = leaf
	return Handover{Successor: mover, Relocated: []*Member{mover, survivor}}, nil
}

// parentOf walks from the root to find the parent of z (z != root).
func (o *Overlay) parentOf(z *zone) *zone {
	cur := o.root
	for {
		next := &cur.kids[z.path.Bit(cur.path.Len)]
		if next == z {
			return cur
		}
		cur = next
	}
}

// pickLeafPair selects the internal zone whose two leaf children will be
// merged to free a mover. With nil avoid it is deepestLeafPair — the same
// deterministic walk Depart has always used. With an avoid predicate it
// scans every leaf pair in the subtree (deterministic DFS order) and
// prefers pairs untouched by avoid, then pairs with at least one
// non-avoided member, then any pair, so takeover never gets stuck even
// when an entire subtree has crashed.
func pickLeafPair(z *zone, avoid func(*Member) bool) *zone {
	if avoid == nil {
		return deepestLeafPair(z)
	}
	var best *zone
	bestScore := -1
	var walk func(*zone)
	walk = func(z *zone) {
		if z.isLeaf() {
			return
		}
		if z.kids[0].isLeaf() && z.kids[1].isLeaf() {
			score := 0
			if !avoid(z.kids[0].member) {
				score++
			}
			if !avoid(z.kids[1].member) {
				score++
			}
			if score > bestScore {
				best, bestScore = z, score
			}
			return
		}
		walk(&z.kids[0])
		walk(&z.kids[1])
	}
	walk(z)
	return best
}

// deepestLeafPair returns an internal zone both of whose children are
// leaves, found by walking toward internal children.
func deepestLeafPair(z *zone) *zone {
	for {
		if !z.kids[0].isLeaf() {
			z = &z.kids[0]
			continue
		}
		if !z.kids[1].isLeaf() {
			z = &z.kids[1]
			continue
		}
		return z
	}
}

// mergeChildren collapses parent's two leaf children into parent, which
// becomes a leaf owned by survivor (the other child's member is the
// caller's to relocate or discard). The children's pair goes on the free
// list holding nothing but its paths.
func (o *Overlay) mergeChildren(parent *zone, survivor *Member) {
	pair := parent.kids
	for i := range pair {
		pair[i].member = nil
		pair[i].nbs.Store(nil)
	}
	o.free = append(o.free, pair)
	parent.kids = nil
	parent.member = survivor
	survivor.leaf = parent
	o.refill(parent)
}

// neighbors returns leaf z's neighbors: derived from the split tree on the
// first call after a structural change, then served from z's memo until
// the next one. Concurrent readers may both derive and store; they store
// equal lists, so either wins.
func (o *Overlay) neighbors(z *zone) []*zone {
	if m := z.nbs.Load(); m != nil && m.gen == o.gen {
		return m.list
	}
	list := o.deriveNeighbors(z)
	z.nbs.Store(&nbMemo{gen: o.gen, list: list})
	return list
}

// deriveNeighbors computes the leaves adjacent to leaf z from the split
// tree alone, in Member.Neighbors order. The leaves across z's lo face in
// dimension k lie under the left child of the deepest ancestor that splits
// k with z on its right (that split plane is z's lower bound in k); with no
// such ancestor the face is the torus seam, and they lie under the right
// child of the topmost k-split. The hi face mirrors this, and with no
// k-split above z at all, z spans dimension k and has no faces there. z
// itself lies under the other child of each of those ancestors, so no face
// walk reaches it.
func (o *Overlay) deriveNeighbors(z *zone) []*zone {
	var ancestors [MaxDepth]*zone
	anc := ancestors[:0]
	for a := o.root; a != z; a = &a.kids[z.path.Bit(a.path.Len)] {
		anc = append(anc, a)
	}
	var scratch [32]*zone
	out := scratch[:0]
	for k := 0; k < o.dim; k++ {
		var loFace, hiFace, top *zone
		for d := len(anc) - 1; d >= 0; d-- {
			a := anc[d]
			if d%o.dim != k {
				continue
			}
			top = a
			if z.path.Bit(d) == 1 {
				if loFace == nil {
					loFace = &a.kids[0]
				}
			} else if hiFace == nil {
				hiFace = &a.kids[1]
			}
		}
		if top == nil {
			continue
		}
		if loFace == nil {
			loFace = &top.kids[1]
		}
		if hiFace == nil {
			hiFace = &top.kids[0]
		}
		from := len(out)
		out = o.appendFace(out, loFace, z, k, 1, from)
		out = o.appendFace(out, hiFace, z, k, 0, from)
	}
	return append([]*zone(nil), out...)
}

// appendFace appends the leaves under r that lie against r's side-ward
// boundary in dimension k (child side at every k-split) and overlap z's
// span in every other dimension, depth-first, lower half first. A leaf
// already in out[from:] — reached through the torus across z's other face
// in k — is not listed twice. Spans are dyadic, so r (a child of a k-split
// above z), overlapping z in every other dimension, agrees with z on their
// decisions both paths have: at a split z's path reaches, z lies in the
// half z.path takes; below, in both.
func (o *Overlay) appendFace(out []*zone, r, z *zone, k, side, from int) []*zone {
	for !r.isLeaf() {
		switch d := r.path.Len; {
		case d%o.dim == k:
			r = &r.kids[side]
		case d < z.path.Len:
			r = &r.kids[z.path.Bit(d)]
		default: // z's span straddles the split: both halves touch it
			out = o.appendFace(out, &r.kids[0], z, k, side, from)
			r = &r.kids[1]
		}
	}
	if slices.Contains(out[from:], r) {
		return out
	}
	return append(out, r)
}

// box returns a path's zone in 64-bit fixed point: for each dimension k,
// box[2k] and box[2k+1] are the first and last value of its span (the last
// rather than the end, which is 2^64 for a span reaching 1).
func (o *Overlay) box(path Path) []uint64 {
	b := make([]uint64, 2*o.dim)
	for k := 0; k < o.dim; k++ {
		c, j := o.span(path, k)
		b[2*k] = c << (64 - j)
		b[2*k+1] = b[2*k] | ^uint64(0)>>j
	}
	return b
}

// adjacent reports CAN adjacency on the torus between two zones given as
// boxes: they abut in exactly one dimension and overlap (with nonzero
// measure) in every other.
func adjacent(a, b []uint64) bool {
	touch := false
	for k := 0; k < len(a); k += 2 {
		if a[k] <= b[k+1] && b[k] <= a[k+1] {
			continue // overlap
		}
		// One ends where the other starts; mod 2^64, across the seam too.
		abut := a[k+1]+1 == b[k] || b[k+1]+1 == a[k]
		if !abut || touch {
			return false
		}
		touch = true
	}
	return touch
}

// torusDist returns the torus distance from coordinate x to the interval
// [lo, hi) along one axis.
func torusDist(x, lo, hi float64) float64 {
	if x >= lo && x < hi {
		return 0
	}
	dLo := math.Abs(x - lo)
	if w := 1 - dLo; w < dLo {
		dLo = w
	}
	dHi := math.Abs(x - hi)
	if w := 1 - dHi; w < dHi {
		dHi = w
	}
	if dLo < dHi {
		return dLo
	}
	return dHi
}

// boxDist returns the squared torus distance from point p to zone z.
func (o *Overlay) boxDist(z *zone, p Point) float64 {
	sum := 0.0
	for k, x := range p {
		c, j := o.span(z.path, k)
		w := pow2(j)
		d := torusDist(x, float64(c)*w, (float64(c)+1)*w)
		sum += d * d
	}
	return sum
}

// Route performs greedy CAN routing from member "from" to the owner of
// point p, forwarding at each step to the unvisited neighbor whose zone is
// closest to p on the torus. It returns the member path including both
// endpoints. Routing fails only if greedy forwarding exhausts all
// neighbors (which cannot happen on a complete zone partition, but is
// guarded to keep the API total). Neighbors at equal distance are common on
// uniform grids; the one with the lowest zone path wins, so a route is a
// function of the overlay and the endpoints alone.
func (o *Overlay) Route(from *Member, p Point) ([]*Member, error) {
	if from == nil || from.leaf == nil {
		return nil, errors.New("can: route from a non-member")
	}
	if !p.Valid(o.dim) {
		return nil, fmt.Errorf("can: invalid target point %v for dim %d", p, o.dim)
	}
	cur := from.leaf
	path := []*Member{from}
	visited := map[*zone]struct{}{cur: {}}
	key := o.decisions(p, MaxDepth)
	for !cur.holds(key) {
		var best *zone
		bestD := math.Inf(1)
		for _, nb := range o.neighbors(cur) {
			if _, seen := visited[nb]; seen {
				continue
			}
			d := o.boxDist(nb, p)
			if d < bestD || (d == bestD && pathLess(nb.path, best.path)) {
				best, bestD = nb, d
			}
		}
		if best == nil {
			return nil, fmt.Errorf("can: greedy routing stuck after %d hops", len(path)-1)
		}
		cur = best
		visited[cur] = struct{}{}
		path = append(path, cur.member)
	}
	return path, nil
}

// MembersUnder returns every member whose zone lies in the region named by
// prefix. An empty prefix returns all members. If the prefix descends below
// a leaf (the tree does not branch that deep there), the leaf's member is
// returned: its zone contains the whole region.
func (o *Overlay) MembersUnder(prefix Path) []*Member {
	z := o.root
	for z.path.Len < prefix.Len {
		if z.isLeaf() {
			if z.member == nil {
				return nil
			}
			return []*Member{z.member}
		}
		z = &z.kids[prefix.Bit(z.path.Len)]
	}
	if !z.path.HasPrefix(prefix) {
		return nil
	}
	return appendMembers(nil, z)
}

// LeafAlong descends the split tree following the bits of path; if the
// tree is deeper than the path, descent continues through 0-children. The
// returned member owns the leaf zone that contains (or is contained by)
// the region the path names. Returns nil only for an empty overlay.
func (o *Overlay) LeafAlong(path Path) *Member {
	// With path's bits beyond Len cleared, a descent by them takes the
	// 0-children there.
	return o.leafOf(path.Bits & (^uint64(0) << (64 - min(max(path.Len, 0), 64)))).member
}

// RegionIndex returns a map from every zone path in the split tree (leaves
// and internal regions alike) to the members whose zones lie inside it.
// The index is a snapshot: joins and departures after the call are not
// reflected. Member slices within the index must not be modified.
func (o *Overlay) RegionIndex() map[Path][]*Member {
	idx := make(map[Path][]*Member)
	var walk func(z *zone) []*Member
	walk = func(z *zone) []*Member {
		if z.isLeaf() {
			if z.member == nil {
				return nil
			}
			ms := []*Member{z.member}
			idx[z.path] = ms
			return ms
		}
		left := walk(&z.kids[0])
		right := walk(&z.kids[1])
		ms := make([]*Member, 0, len(left)+len(right))
		ms = append(ms, left...)
		ms = append(ms, right...)
		idx[z.path] = ms
		return ms
	}
	walk(o.root)
	return idx
}

// CheckInvariants exhaustively validates the overlay structure: leaf zones
// tile the space, member/leaf/owner links are consistent, Size matches the
// tree, every leaf's neighbor list — as Neighbors and Route see it — holds
// each leaf adjacent to it exactly once and nothing else, and the
// directory and free list are as checkDirectory requires. O(n^2); intended
// for tests.
func (o *Overlay) CheckInvariants() error {
	var leaves, zones []*zone
	var walk func(*zone) error
	walk = func(z *zone) error {
		zones = append(zones, z)
		if z.isLeaf() {
			if z.member == nil && z != o.root {
				return fmt.Errorf("leaf %s has no member", z.path)
			}
			if z.member != nil && (z.member.leaf != z || z.member.owner != o) {
				return fmt.Errorf("leaf %s member back-link broken", z.path)
			}
			leaves = append(leaves, z)
			return nil
		}
		for i := range z.kids {
			if err := walk(&z.kids[i]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(o.root); err != nil {
		return err
	}
	if err := o.checkDirectory(zones); err != nil {
		return err
	}
	vol := 0.0
	boxes := make([][]uint64, len(leaves))
	boxOf := make(map[*zone][]uint64, len(leaves))
	for i, z := range leaves {
		vol += math.Ldexp(1, -z.path.Len)
		boxes[i] = o.box(z.path)
		boxOf[z] = boxes[i]
	}
	if math.Abs(vol-1) > 1e-9 {
		return fmt.Errorf("leaf volumes sum to %v, want 1", vol)
	}
	for ai, a := range leaves {
		nbs := o.neighbors(a)
		for i, nb := range nbs {
			switch {
			case nb == a || slices.Contains(nbs[:i], nb):
				return fmt.Errorf("leaf %s lists neighbor %s twice or itself", a.path, nb.path)
			case !nb.isLeaf() || nb.member == nil || nb.member.leaf != nb:
				return fmt.Errorf("leaf %s lists %s, which is not a member's leaf", a.path, nb.path)
			case !adjacent(boxes[ai], boxOf[nb]):
				return fmt.Errorf("leaf %s lists %s, which is not adjacent", a.path, nb.path)
			}
		}
		want := 0
		for bi := range leaves {
			if bi != ai && adjacent(boxes[ai], boxes[bi]) {
				want++
			}
		}
		if len(nbs) != want {
			return fmt.Errorf("leaf %s lists %d neighbors, %d leaves are adjacent", a.path, len(nbs), want)
		}
	}
	count := 0
	for _, z := range leaves {
		if z.member != nil {
			count++
		}
	}
	if count != o.size {
		return fmt.Errorf("member count mismatch: %d leaves vs Size() = %d", count, o.size)
	}
	return nil
}

// checkDirectory validates the prefix directory against root descents, and
// the free list against zones, every zone of the tree: the depth is what
// the size allows, every slot holds the deepest zone of depth at most
// dirDepth on its prefix, a descent from the directory by a leaf's path (the
// key of its lower corner) lands at the leaf, LeafAlong (also for paths
// with bits set beyond Len) lands where a descent from the root does, and
// no pair on the free list holds a zone of the tree or a member.
func (o *Overlay) checkDirectory(zones []*zone) error {
	if d := dirDepthFor(o.size); o.dirDepth < d || o.dirDepth > d+1 || len(o.dir) != 1<<o.dirDepth {
		return fmt.Errorf("directory depth %d with %d slots for %d members", o.dirDepth, len(o.dir), o.size)
	}
	for x, got := range o.dir {
		want := o.root
		for !want.isLeaf() && want.path.Len < o.dirDepth {
			want = &want.kids[x>>(o.dirDepth-1-want.path.Len)&1]
		}
		if got != want {
			return fmt.Errorf("directory slot %d holds %s, want %s", x, got.path, want.path)
		}
	}
	live := make(map[*zone]bool, len(zones))
	for _, z := range zones {
		live[z] = true
		if z.isLeaf() {
			if got := o.leafOf(z.path.Bits); got != z || got != descend(o.root, z.path.Bits) {
				return fmt.Errorf("leafOf(path of %s) = %s", z.path, got.path)
			}
		}
		for _, path := range []Path{z.path, {Bits: z.path.Bits | ^uint64(0)>>z.path.Len, Len: z.path.Len}} {
			want := descend(o.root, path.Bits&^(^uint64(0)>>path.Len)).member // path, then 0-children
			if got := o.LeafAlong(path); got != want {
				return fmt.Errorf("LeafAlong(%064b/%d) = %v, a root descent finds %v", path.Bits, path.Len, got, want)
			}
		}
	}
	for _, pair := range o.free {
		for i := range pair {
			if live[&pair[i]] || pair[i].member != nil {
				return fmt.Errorf("free pair holds zone %s, which is live or has a member", pair[i].path)
			}
		}
	}
	return nil
}
