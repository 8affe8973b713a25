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
// Overlays are not safe for concurrent mutation; concurrent readers are
// fine once construction settles.
package can

import (
	"errors"
	"fmt"
	"math"
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
	// Tag is an opaque slot reference for the embedding layer (core packs
	// an arena handle here so per-member state is a slice index away
	// instead of a map[*Member] lookup). The overlay never reads it.
	Tag uint64

	leaf  *zone    // nil once the member has left
	owner *Overlay // the overlay leaf belongs to
}

// Path returns the member's current zone path.
func (m *Member) Path() Path { return m.leaf.path }

// ZoneLo returns a copy of the member zone's lower corner.
func (m *Member) ZoneLo() Point { return append(Point(nil), m.leaf.lo...) }

// ZoneHi returns a copy of the member zone's upper corner.
func (m *Member) ZoneHi() Point { return append(Point(nil), m.leaf.hi...) }

// Volume returns the member zone's volume (fraction of the whole space).
func (m *Member) Volume() float64 { return m.leaf.volume() }

// ZoneCenter returns the center point of the member's zone; it always lies
// strictly inside the zone, making it a valid routing target for the zone.
func (m *Member) ZoneCenter() Point {
	c := make(Point, len(m.leaf.lo))
	for k := range c {
		c[k] = (m.leaf.lo[k] + m.leaf.hi[k]) / 2
	}
	return c
}

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

// Contains reports whether the member's zone contains p.
func (m *Member) Contains(p Point) bool { return m.leaf.contains(p) }

// String implements fmt.Stringer.
func (m *Member) String() string {
	return fmt.Sprintf("member{host=%d zone=%s}", m.Host, m.leaf.path)
}

// zone is a node of the binary split tree. Internal zones have exactly two
// children; leaf zones have a member (nil only for an empty overlay root).
type zone struct {
	// What leafAt reads per level comes first and shares a cache line; the
	// midpoint is kept rather than recomputed from lo and hi, whose
	// coordinates live in two more.
	children [2]*zone
	splitDim int     // dimension split at this node (internal zones)
	splitAt  float64 // midpoint of the split (internal zones)
	path     Path
	lo, hi   Point
	member   *Member
	// nbs memoizes a leaf's derived neighbors (Overlay.neighbors). Atomic
	// because concurrent readers of a settled overlay fill it.
	nbs atomic.Pointer[nbMemo]
}

// nbMemo is a leaf's neighbor list as derived at overlay generation gen.
type nbMemo struct {
	gen  uint64
	list []*zone
}

func (z *zone) isLeaf() bool { return z.children[0] == nil }

// pathLess is the canonical order on zone paths: by bits, then length.
// Leaf paths are prefix-free, so among leaves the bits alone decide.
func pathLess(a, b Path) bool {
	if a.Bits != b.Bits {
		return a.Bits < b.Bits
	}
	return a.Len < b.Len
}

func (z *zone) contains(p Point) bool {
	for k := range p {
		if p[k] < z.lo[k] || p[k] >= z.hi[k] {
			return false
		}
	}
	return true
}

func (z *zone) volume() float64 {
	v := 1.0
	for k := range z.lo {
		v *= z.hi[k] - z.lo[k]
	}
	return v
}

// Overlay is a CAN over [0,1)^dim.
type Overlay struct {
	dim  int
	root *zone
	size int    // leaves that have a member
	gen  uint64 // bumped by every structural change; dates neighbor memos
}

// New returns an empty CAN of the given dimensionality.
func New(dim int) (*Overlay, error) {
	if dim < 1 || dim > 16 {
		return nil, fmt.Errorf("can: dim = %d, need in [1,16]", dim)
	}
	lo := make(Point, dim)
	hi := make(Point, dim)
	for i := range hi {
		hi[i] = 1
	}
	return &Overlay{dim: dim, root: &zone{lo: lo, hi: hi}}, nil
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
		out = appendMembers(out, z.children[0])
		z = z.children[1]
	}
	if z.member != nil {
		out = append(out, z.member)
	}
	return out
}

// leafAt descends to the leaf zone containing p.
func (o *Overlay) leafAt(p Point) *zone {
	z := o.root
	for !z.isLeaf() {
		if p[z.splitDim] < z.splitAt {
			z = z.children[0]
		} else {
			z = z.children[1]
		}
	}
	return z
}

// Lookup returns the member owning the zone that contains p, or nil for an
// empty overlay or an invalid point.
func (o *Overlay) Lookup(p Point) *Member {
	if !p.Valid(o.dim) {
		return nil
	}
	return o.leafAt(p).member
}

// PathOf returns the path of the leaf zone containing p.
func (o *Overlay) PathOf(p Point) (Path, error) {
	if !p.Valid(o.dim) {
		return Path{}, fmt.Errorf("can: invalid point %v for dim %d", p, o.dim)
	}
	return o.leafAt(p).path, nil
}

// Join adds a member for host at point p: the leaf zone containing p is
// split, the new member takes the half containing p, and the previous
// owner keeps the other half (the CAN join protocol).
func (o *Overlay) Join(host topology.NodeID, p Point) (*Member, error) {
	if !p.Valid(o.dim) {
		return nil, fmt.Errorf("can: invalid join point %v for dim %d", p, o.dim)
	}
	return o.join(host, append(Point(nil), p...))
}

// JoinRandom joins host at a uniformly random point.
func (o *Overlay) JoinRandom(host topology.NodeID, rng *simrand.Source) (*Member, error) {
	return o.join(host, RandomPoint(o.dim, rng))
}

// join is Join for a valid point the member may keep as its JoinPoint.
func (o *Overlay) join(host topology.NodeID, p Point) (*Member, error) {
	m := &Member{Host: host, JoinPoint: p, owner: o}
	leaf := o.leafAt(p)
	if leaf.member == nil {
		// First member adopts the whole space.
		leaf.member = m
		m.leaf = leaf
		o.size++
		return m, nil
	}
	if leaf.path.Len >= MaxDepth {
		return nil, fmt.Errorf("can: split depth limit %d reached", MaxDepth)
	}
	o.gen++
	left, right := o.split(leaf)
	old := leaf.member
	leaf.member = nil
	newSide := left
	oldSide := right
	if !left.contains(p) {
		newSide, oldSide = right, left
	}
	newSide.member = m
	m.leaf = newSide
	oldSide.member = old
	old.leaf = oldSide
	o.size++
	return m, nil
}

// split turns leaf into an internal zone with two children along dimension
// depth mod d. Both children come from one allocation, and the two corners
// they do not share with leaf from another.
func (o *Overlay) split(leaf *zone) (left, right *zone) {
	k := leaf.path.Len % o.dim
	mid := (leaf.lo[k] + leaf.hi[k]) / 2

	pair := new([2]zone)
	left, right = &pair[0], &pair[1]
	corners := make(Point, 2*o.dim)
	lhi, rlo := corners[:o.dim:o.dim], corners[o.dim:]
	copy(lhi, leaf.hi)
	lhi[k] = mid
	copy(rlo, leaf.lo)
	rlo[k] = mid
	left.path, left.lo, left.hi = leaf.path.child(0), leaf.lo, lhi
	right.path, right.lo, right.hi = leaf.path.child(1), rlo, leaf.hi

	leaf.splitDim = k
	leaf.splitAt = mid
	leaf.children = [2]*zone{left, right}
	return left, right
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
	leaf := m.leaf
	m.leaf, m.owner = nil, nil
	if leaf == o.root {
		leaf.member = nil // overlay now empty
		return Handover{}, nil
	}
	parent := o.parentOf(leaf)
	sibling := parent.children[0]
	if sibling == leaf {
		sibling = parent.children[1]
	}
	if sibling.isLeaf() {
		succ := sibling.member
		o.mergeChildren(parent, succ)
		return Handover{Successor: succ, Relocated: []*Member{succ}}, nil
	}
	// Relocate the owner of one leaf of a sibling-leaf pair.
	pairParent := pickLeafPair(sibling, avoid)
	mover := pairParent.children[0].member
	survivor := pairParent.children[1].member
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
		next := cur.children[z.path.Bit(cur.path.Len)]
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
		if z.children[0].isLeaf() && z.children[1].isLeaf() {
			score := 0
			if !avoid(z.children[0].member) {
				score++
			}
			if !avoid(z.children[1].member) {
				score++
			}
			if score > bestScore {
				best, bestScore = z, score
			}
			return
		}
		walk(z.children[0])
		walk(z.children[1])
	}
	walk(z)
	return best
}

// deepestLeafPair returns an internal zone both of whose children are
// leaves, found by walking toward internal children.
func deepestLeafPair(z *zone) *zone {
	for {
		if !z.children[0].isLeaf() {
			z = z.children[0]
			continue
		}
		if !z.children[1].isLeaf() {
			z = z.children[1]
			continue
		}
		return z
	}
}

// mergeChildren collapses parent's two leaf children into parent, which
// becomes a leaf owned by survivor (the other child's member is the
// caller's to relocate or discard).
func (o *Overlay) mergeChildren(parent *zone, survivor *Member) {
	parent.children = [2]*zone{}
	parent.member = survivor
	survivor.leaf = parent
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
// k with z on its right (that split plane is z.lo[k]); with no such
// ancestor the face is the torus seam, and they lie under the right child
// of the topmost k-split. The hi face mirrors this, and with no k-split
// above z at all, z spans dimension k and has no faces there. z itself
// lies under the other child of each of those ancestors, so no face walk
// reaches it. Splits are dyadic midpoints, so every comparison is exact.
func (o *Overlay) deriveNeighbors(z *zone) []*zone {
	var ancestors [MaxDepth]*zone
	anc := ancestors[:0]
	for a := o.root; a != z; a = a.children[z.path.Bit(a.path.Len)] {
		anc = append(anc, a)
	}
	var scratch [32]*zone
	out := scratch[:0]
	for k := 0; k < o.dim; k++ {
		var loFace, hiFace, top *zone
		for d := len(anc) - 1; d >= 0; d-- {
			a := anc[d]
			if a.splitDim != k {
				continue
			}
			top = a
			if z.path.Bit(d) == 1 {
				if loFace == nil {
					loFace = a.children[0]
				}
			} else if hiFace == nil {
				hiFace = a.children[1]
			}
		}
		if top == nil {
			continue
		}
		if loFace == nil {
			loFace = top.children[1]
		}
		if hiFace == nil {
			hiFace = top.children[0]
		}
		from := len(out)
		out = appendFace(out, loFace, z, k, 1, from)
		out = appendFace(out, hiFace, z, k, 0, from)
	}
	return append([]*zone(nil), out...)
}

// appendFace appends the leaves under r that lie against r's side-ward
// boundary in dimension k (child side at every k-split) and overlap z's
// span in every other dimension, depth-first, lower half first. A leaf
// already in out[from:] — reached through the torus across z's other face
// in k — is not listed twice.
func appendFace(out []*zone, r, z *zone, k, side, from int) []*zone {
	for !r.isLeaf() {
		switch j := r.splitDim; {
		case j == k:
			r = r.children[side]
		case z.hi[j] <= r.splitAt:
			r = r.children[0]
		case z.lo[j] >= r.splitAt:
			r = r.children[1]
		default: // z's span straddles the split: both halves touch it
			out = appendFace(out, r.children[0], z, k, side, from)
			r = r.children[1]
		}
	}
	if slices.Contains(out[from:], r) {
		return out
	}
	return append(out, r)
}

// adjacent reports CAN adjacency on the torus: the zones abut in exactly
// one dimension and their spans overlap (with nonzero measure) in every
// other dimension.
func adjacent(a, b *zone) bool {
	touch := false
	for k := range a.lo {
		overlap := a.lo[k] < b.hi[k] && b.lo[k] < a.hi[k]
		if overlap {
			continue
		}
		abut := a.hi[k] == b.lo[k] || b.hi[k] == a.lo[k] ||
			(a.lo[k] == 0 && b.hi[k] == 1) || (b.lo[k] == 0 && a.hi[k] == 1)
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
func boxDist(z *zone, p Point) float64 {
	sum := 0.0
	for k := range p {
		d := torusDist(p[k], z.lo[k], z.hi[k])
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
	for !cur.contains(p) {
		var best *zone
		bestD := math.Inf(1)
		for _, nb := range o.neighbors(cur) {
			if _, seen := visited[nb]; seen {
				continue
			}
			d := boxDist(nb, p)
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
		z = z.children[prefix.Bit(z.path.Len)]
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
	z := o.root
	for !z.isLeaf() {
		bit := 0
		if z.path.Len < path.Len {
			bit = path.Bit(z.path.Len)
		}
		z = z.children[bit]
	}
	return z.member
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
		left := walk(z.children[0])
		right := walk(z.children[1])
		ms := make([]*Member, 0, len(left)+len(right))
		ms = append(ms, left...)
		ms = append(ms, right...)
		idx[z.path] = ms
		return ms
	}
	walk(o.root)
	return idx
}

// LeafPaths returns the paths of all leaf zones (diagnostics and tests).
func (o *Overlay) LeafPaths() []Path {
	var out []Path
	var walk func(*zone)
	walk = func(z *zone) {
		if z.isLeaf() {
			out = append(out, z.path)
			return
		}
		walk(z.children[0])
		walk(z.children[1])
	}
	walk(o.root)
	return out
}

// CheckInvariants exhaustively validates the overlay structure: leaf zones
// tile the space, member/leaf/owner links are consistent, Size matches the
// tree, and every leaf's neighbor list — as Neighbors and Route see it —
// holds each leaf adjacent to it exactly once and nothing else. O(n^2);
// intended for tests.
func (o *Overlay) CheckInvariants() error {
	var leaves []*zone
	var walk func(*zone) error
	walk = func(z *zone) error {
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
		for _, c := range z.children {
			if c == nil {
				return fmt.Errorf("internal zone %s has nil child", z.path)
			}
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(o.root); err != nil {
		return err
	}
	vol := 0.0
	for _, z := range leaves {
		vol += z.volume()
	}
	if math.Abs(vol-1) > 1e-9 {
		return fmt.Errorf("leaf volumes sum to %v, want 1", vol)
	}
	for _, a := range leaves {
		nbs := o.neighbors(a)
		for i, nb := range nbs {
			switch {
			case nb == a || slices.Contains(nbs[:i], nb):
				return fmt.Errorf("leaf %s lists neighbor %s twice or itself", a.path, nb.path)
			case !nb.isLeaf() || nb.member == nil || nb.member.leaf != nb:
				return fmt.Errorf("leaf %s lists %s, which is not a member's leaf", a.path, nb.path)
			case !adjacent(a, nb):
				return fmt.Errorf("leaf %s lists %s, which is not adjacent", a.path, nb.path)
			}
		}
		want := 0
		for _, b := range leaves {
			if b != a && adjacent(a, b) {
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
