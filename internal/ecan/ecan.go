// Package ecan implements eCAN (expressway CAN, Xu & Zhang): a hierarchy
// of high-order zones layered over a basic CAN that cuts routing from
// O(d*N^(1/d)) to O(log N) hops.
//
// A CAN zone's split path identifies it; grouping the path's bits into
// digits of dim bits makes every digit boundary a high-order zone: the
// order-1 zone around a node is the 2^dim CAN-zone block sharing all but
// the last digit, order-2 the block sharing all but the last two digits,
// and so on — exactly the paper's "every 2^d CAN zones represent an
// order-1 zone, and 2^d order-i zones an order-(i+1) zone". Routing
// resolves one digit per hop (Pastry with base 2^dim, which is why the
// paper calls the two equivalent).
//
// The key flexibility the paper exploits: a node may pick ANY member of a
// neighboring high-order zone as its routing entry for that zone. The
// Selector interface is that choice point — random (baseline), oracle
// closest (optimal), or the global-soft-state procedure (package
// softstate).
package ecan

import (
	"errors"
	"fmt"

	"gsso/internal/can"
	"gsso/internal/netsim"
	"gsso/internal/simrand"
	"gsso/internal/topology"
)

// Selector chooses a node's routing entry for a high-order region among
// the region's members. self is the selecting node's member; candidates is
// the region's full membership (shared slice — do not modify). A Selector
// may return nil only for an empty candidate list.
type Selector interface {
	Select(self *can.Member, region can.Path, candidates []*can.Member) *can.Member
}

// RandomSelector picks a uniformly random member of the region: the
// paper's baseline ("each node simply randomly picks one node from the
// neighboring zone"), oblivious to physical proximity.
type RandomSelector struct {
	RNG *simrand.Source
}

// Select implements Selector.
func (s RandomSelector) Select(self *can.Member, _ can.Path, candidates []*can.Member) *can.Member {
	return pickAvoidingSelf(self, candidates, func(n int) int { return s.RNG.Intn(n) })
}

// ClosestSelector is the oracle optimum: it scans every candidate with the
// simulator's unmetered latency and picks the physically closest. The
// paper's "optimal" curves ("the number of RTT measurements is infinity")
// use exactly this.
type ClosestSelector struct {
	Env *netsim.Env
}

// Select implements Selector.
func (s ClosestSelector) Select(self *can.Member, _ can.Path, candidates []*can.Member) *can.Member {
	var best *can.Member
	bestD := 0.0
	for _, c := range candidates {
		if c == self {
			continue
		}
		d := s.Env.Latency(self.Host, c.Host)
		if best == nil || d < bestD {
			best, bestD = c, d
		}
	}
	if best == nil && len(candidates) > 0 {
		return candidates[0] // region containing only self
	}
	return best
}

// FuncSelector adapts a plain function to the Selector interface.
type FuncSelector func(self *can.Member, region can.Path, candidates []*can.Member) *can.Member

// Select implements Selector.
func (f FuncSelector) Select(self *can.Member, region can.Path, candidates []*can.Member) *can.Member {
	return f(self, region, candidates)
}

// pickAvoidingSelf returns a random candidate other than self when one
// exists.
func pickAvoidingSelf(self *can.Member, candidates []*can.Member, intn func(int) int) *can.Member {
	if len(candidates) == 0 {
		return nil
	}
	for attempt := 0; attempt < 8; attempt++ {
		c := candidates[intn(len(candidates))]
		if c != self {
			return c
		}
	}
	for _, c := range candidates {
		if c != self {
			return c
		}
	}
	return candidates[0]
}

// Node is a member's eCAN routing state. Entries are selected lazily and
// cached; InvalidateEntries drops them so the next route re-selects.
type Node struct {
	Member *can.Member
	// digits[row*fanout+digit] caches the entry for the high-order region
	// at that row and digit; chosen[...] records whether selection ran
	// (distinguishing "not yet selected" from "region empty").
	digits []*can.Member
	chosen []bool
}

// Overlay layers eCAN routing over a CAN.
type Overlay struct {
	can      *can.Overlay
	digitLen int // bits per digit (= CAN dimensionality by default)
	fanout   int // 2^digitLen
	maxRows  int
	selector Selector
	regions  map[can.Path][]*can.Member
	nodes    map[*can.Member]*Node
}

// New builds an eCAN over c using sel for high-order neighbor selection.
// digitLen is the number of path bits per routing digit; 0 means the CAN
// dimensionality (the paper's layout: 2^d CAN zones per order-1 zone).
// The region index is snapshotted at construction; call Refresh after
// membership changes.
func New(c *can.Overlay, digitLen int, sel Selector) (*Overlay, error) {
	if c == nil {
		return nil, errors.New("ecan: nil CAN")
	}
	if sel == nil {
		return nil, errors.New("ecan: nil selector")
	}
	if digitLen == 0 {
		digitLen = c.Dim()
	}
	if digitLen < 1 || digitLen > 8 {
		return nil, fmt.Errorf("ecan: digitLen = %d, need in [1,8]", digitLen)
	}
	o := &Overlay{
		can:      c,
		digitLen: digitLen,
		fanout:   1 << digitLen,
		selector: sel,
	}
	o.Refresh()
	return o, nil
}

// CAN returns the underlying CAN overlay.
func (o *Overlay) CAN() *can.Overlay { return o.can }

// DigitLen returns the number of path bits resolved per routing hop.
func (o *Overlay) DigitLen() int { return o.digitLen }

// SetSelector replaces the neighbor-selection policy and drops all cached
// entries.
func (o *Overlay) SetSelector(sel Selector) {
	o.selector = sel
	for _, n := range o.nodes {
		n.reset(o.maxRows, o.fanout)
	}
}

// Refresh re-snapshots the region index and drops all routing state; call
// it after joins or departures.
func (o *Overlay) Refresh() {
	o.regions = o.can.RegionIndex()
	maxDepth := 0
	for _, m := range o.can.Members() {
		if d := m.Depth(); d > maxDepth {
			maxDepth = d
		}
	}
	o.maxRows = (maxDepth + o.digitLen - 1) / o.digitLen
	if o.maxRows == 0 {
		o.maxRows = 1
	}
	o.nodes = make(map[*can.Member]*Node, o.can.Size())
}

// Reindex re-snapshots the region index after a membership change while
// preserving cached routing entries — the surgical counterpart to
// Refresh's full wipe, for repair paths that know exactly which members
// moved. invalid marks members whose zone changed or vanished: every
// cached slot pointing at one is cleared (next use re-selects), a node
// owned by one is reset wholesale (its own path, hence its region
// geometry, changed), and nodes of members no longer in the overlay are
// dropped. Slots cached as "region empty" are re-armed too — a takeover
// can relocate a member INTO a previously empty region. If the table
// geometry (row count) changed, all routing state resets as in Refresh.
func (o *Overlay) Reindex(invalid func(*can.Member) bool) {
	o.regions = o.can.RegionIndex()
	maxDepth := 0
	for _, m := range o.can.Members() {
		if d := m.Depth(); d > maxDepth {
			maxDepth = d
		}
	}
	rows := (maxDepth + o.digitLen - 1) / o.digitLen
	if rows == 0 {
		rows = 1
	}
	if rows != o.maxRows {
		o.maxRows = rows
		o.nodes = make(map[*can.Member]*Node, o.can.Size())
		return
	}
	for m, n := range o.nodes {
		if !o.can.IsMember(m) {
			delete(o.nodes, m)
			continue
		}
		if invalid == nil {
			continue
		}
		if invalid(m) {
			n.reset(o.maxRows, o.fanout)
			continue
		}
		for i, c := range n.chosen {
			if c && (n.digits[i] == nil || invalid(n.digits[i])) {
				n.digits[i] = nil
				n.chosen[i] = false
			}
		}
	}
}

// RegionMembers returns the membership of a high-order region (the shared
// index slice; do not modify). Nil if the region does not exist.
func (o *Overlay) RegionMembers(region can.Path) []*can.Member {
	if ms, ok := o.regions[region]; ok {
		return ms
	}
	// A region below a leaf is covered by that leaf.
	for l := region.Len - 1; l >= 0; l-- {
		if ms, ok := o.regions[region.Prefix(l)]; ok {
			if len(ms) == 1 {
				return ms
			}
			return nil
		}
	}
	return nil
}

// Node returns (creating lazily) the routing state for member m.
func (o *Overlay) Node(m *can.Member) *Node {
	if n, ok := o.nodes[m]; ok {
		return n
	}
	n := &Node{Member: m}
	n.reset(o.maxRows, o.fanout)
	o.nodes[m] = n
	return n
}

func (n *Node) reset(rows, fanout int) {
	n.digits = make([]*can.Member, rows*fanout)
	n.chosen = make([]bool, rows*fanout)
}

// InvalidateEntries drops m's cached routing entries (e.g. after a
// pub/sub notification reports better candidates).
func (o *Overlay) InvalidateEntries(m *can.Member) {
	if n, ok := o.nodes[m]; ok {
		n.reset(o.maxRows, o.fanout)
	}
}

// Entry returns m's routing entry toward the region at (row, digit),
// selecting it on first use. It returns nil for empty regions.
func (o *Overlay) Entry(m *can.Member, row, digit int) *can.Member {
	n := o.Node(m)
	slot := row*o.fanout + digit
	if slot >= len(n.digits) {
		return nil
	}
	if n.chosen[slot] {
		return n.digits[slot]
	}
	region := o.regionForBits(m.Path(), row, digit)
	candidates := o.RegionMembers(region)
	var pick *can.Member
	if len(candidates) > 0 {
		pick = o.selector.Select(m, region, candidates)
	}
	n.digits[slot] = pick
	n.chosen[slot] = true
	return pick
}

// CachedEntry returns m's routing entry toward (row, digit) only if it
// has already been selected; it never triggers selection. Nil means
// "not selected yet" or "region empty".
func (o *Overlay) CachedEntry(m *can.Member, row, digit int) *can.Member {
	n, ok := o.nodes[m]
	if !ok {
		return nil
	}
	slot := row*o.fanout + digit
	if slot >= len(n.digits) || !n.chosen[slot] {
		return nil
	}
	return n.digits[slot]
}

// regionForBits builds the region path: prefix of row*digitLen bits of
// base, then the digit bits (most significant first).
func (o *Overlay) regionForBits(base can.Path, row, digit int) can.Path {
	region := base.Prefix(row * o.digitLen)
	for b := o.digitLen - 1; b >= 0; b-- {
		bit := (digit >> uint(b)) & 1
		region = pathChild(region, bit)
	}
	return region
}

// pathChild extends a path by one bit.
func pathChild(p can.Path, bit int) can.Path {
	return can.Path{Bits: p.Bits | uint64(bit)<<(63-p.Len), Len: p.Len + 1}
}

// digitOf extracts the digit (digitLen bits) of path starting at bit
// row*digitLen. Bits beyond the path's length read as zero.
func (o *Overlay) digitOf(path can.Path, row int) int {
	d := 0
	for b := 0; b < o.digitLen; b++ {
		i := row*o.digitLen + b
		bit := 0
		if i < path.Len {
			bit = path.Bit(i)
		}
		d = d<<1 | bit
	}
	return d
}

// RouteResult describes one eCAN route.
type RouteResult struct {
	// Members is the hop sequence including source and destination owner.
	Members []*can.Member
}

// Hops returns the number of overlay hops (len(Members) - 1).
func (r RouteResult) Hops() int { return len(r.Members) - 1 }

// Latency sums the physical latency of every hop under env.
func (r RouteResult) Latency(env *netsim.Env) float64 {
	total := 0.0
	for i := 1; i < len(r.Members); i++ {
		total += env.Latency(r.Members[i-1].Host, r.Members[i].Host)
	}
	return total
}

// Route routes from member "from" to the owner of target using high-order
// entries: each hop resolves at least one more path bit toward the target
// (usually a whole digit), giving O(log N) hops.
func (o *Overlay) Route(from *can.Member, target can.Point) (RouteResult, error) {
	if from == nil {
		return RouteResult{}, errors.New("ecan: route from nil member")
	}
	tpath, err := o.can.PathOf(target)
	if err != nil {
		return RouteResult{}, err
	}
	cur := from
	hops := []*can.Member{from}
	for !cur.Contains(target) {
		l := cur.Path().CommonPrefixLen(tpath)
		row := l / o.digitLen
		next := o.Entry(cur, row, o.digitOf(tpath, row))
		if next == nil || next == cur {
			// The digit region is unpopulated at full depth (the target
			// leaf is shallower than the digit boundary) or selection
			// degenerated; fall back to resolving a single bit.
			next = o.bitFallback(cur, tpath, l)
		}
		if next == nil || next == cur {
			return RouteResult{}, fmt.Errorf("ecan: routing stuck at %s toward %s", cur.Path(), tpath)
		}
		cur = next
		hops = append(hops, cur)
		if len(hops) > o.can.Size()+1 {
			return RouteResult{}, errors.New("ecan: routing loop detected")
		}
	}
	return RouteResult{Members: hops}, nil
}

// bitFallback picks an entry that fixes exactly the next differing bit:
// the region sharing l bits with the target plus the target's bit l. This
// region is never empty when the target exists.
func (o *Overlay) bitFallback(cur *can.Member, tpath can.Path, l int) *can.Member {
	bit := 0
	if l < tpath.Len {
		bit = tpath.Bit(l)
	}
	region := pathChild(tpath.Prefix(l), bit)
	candidates := o.RegionMembers(region)
	if len(candidates) == 0 {
		return nil
	}
	pick := o.selector.Select(cur, region, candidates)
	if pick == nil {
		pick = candidates[0]
	}
	return pick
}

// BuildUniform constructs a CAN+eCAN with n members on distinct random
// stub hosts, joining at uniform random points. It is the shared setup
// path for experiments.
func BuildUniform(net *topology.Network, n, dim int, digitLen int, sel Selector, rng *simrand.Source) (*Overlay, error) {
	c, err := can.New(dim)
	if err != nil {
		return nil, err
	}
	hosts := net.RandomStubHosts(rng.Split("hosts"), n)
	ptRNG := rng.Split("points")
	for _, h := range hosts {
		if _, err := c.JoinRandom(h, ptRNG); err != nil {
			return nil, err
		}
	}
	return New(c, digitLen, sel)
}
