// Package proximity implements and compares the paper's three ways of
// generating proximity information (§4): expanding-ring search over an
// overlay, landmark clustering alone, and the paper's hybrid — landmark
// clustering as a pre-selection filter followed by a few direct RTT
// measurements.
//
// The evaluation currency is the stretch of the "nearest" neighbor each
// algorithm finds (found distance / true nearest distance) as a function
// of the RTT measurements it spent, reproducing Figures 3-6.
package proximity

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"

	"gsso/internal/can"
	"gsso/internal/landmark"
	"gsso/internal/netsim"
	"gsso/internal/topology"
)

// Index is a landmark-position index over a set of hosts: each host's
// landmark vector and scalar landmark number, with the hosts ordered by
// number for curve-window preselection. It corresponds to the information
// the global soft-state makes available; package softstate stores the same
// records on the overlay itself.
type Index struct {
	space   *landmark.Space
	hosts   []topology.NodeID
	vectors []landmark.Vector
	numbers []uint64
	byNum   []int   // host indices sorted by landmark number
	pos     []int32 // pos[h] is host h's index, -1 if h is not indexed
}

// BuildIndex measures every host's landmark vector through env (metered:
// this is the k-probes-per-node join cost every scheme pays) and builds
// the index. A host listed twice is an error.
//
// Hosts are measured on GOMAXPROCS workers, each a contiguous share: a
// vector depends on its host alone and the probe total on the host count
// alone, so the index and env.Probes() are the same at any worker count.
// With a fault plan installed the order of probes decides which are lost,
// and the hosts are measured one after another on the calling goroutine.
func BuildIndex(env *netsim.Env, space *landmark.Space, hosts []topology.NodeID) (*Index, error) {
	if env == nil || space == nil {
		return nil, errors.New("proximity: nil env or space")
	}
	if len(hosts) == 0 {
		return nil, errors.New("proximity: no hosts")
	}
	if h := slices.Min(hosts); h < 0 {
		return nil, fmt.Errorf("proximity: invalid host %d", h)
	}
	ix := &Index{
		space:   space,
		hosts:   append([]topology.NodeID(nil), hosts...),
		vectors: make([]landmark.Vector, len(hosts)),
		numbers: make([]uint64, len(hosts)),
		pos:     make([]int32, slices.Max(hosts)+1),
	}
	for h := range ix.pos {
		ix.pos[h] = -1
	}
	for i, h := range ix.hosts {
		if ix.pos[h] >= 0 {
			return nil, fmt.Errorf("proximity: host %d listed twice", h)
		}
		ix.pos[h] = int32(i)
	}
	// One backing array for every vector; the full slice expressions keep
	// an append to one vector out of its neighbor's storage.
	set := space.Set()
	dims := set.Len()
	backing := make(landmark.Vector, len(hosts)*dims)
	measure := func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			vec := landmark.MeasureInto(env, ix.hosts[i], set, backing[i*dims:(i+1)*dims:(i+1)*dims])
			num, err := space.Number(vec)
			if err != nil {
				return fmt.Errorf("proximity: host %d: %w", ix.hosts[i], err)
			}
			ix.vectors[i] = vec
			ix.numbers[i] = num
		}
		return nil
	}
	workers := runtime.GOMAXPROCS(0)
	if env.FaultPlan() != nil {
		workers = 1
	}
	if workers > len(hosts) {
		workers = len(hosts)
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = measure(w*len(hosts)/workers, (w+1)*len(hosts)/workers)
		}(w)
	}
	errs[0] = measure(0, len(hosts)/workers)
	wg.Wait()
	for _, err := range errs { // shares are in host order: the first error is the lowest host's
		if err != nil {
			return nil, err
		}
	}
	ix.byNum = orderByNumber(ix.pos, ix.numbers)
	return ix, nil
}

// orderByNumber returns the host indices ordered by (number, host): pos
// (host → index, -1 for none) lists them by host, and a stable LSD radix
// sort, one pass per byte up to the highest set bit of any number, orders
// them by number while keeping host order among equal numbers.
func orderByNumber(pos []int32, nums []uint64) []int {
	order, tmp := make([]int, 0, len(nums)), make([]int, len(nums))
	for _, i := range pos {
		if i >= 0 {
			order = append(order, int(i))
		}
	}
	top := uint64(0)
	for _, n := range nums {
		top |= n
	}
	for shift := 0; shift < bits.Len64(top); shift += 8 {
		var at [257]int // at[b+1] counts byte b, then at[b] is where b starts
		for _, i := range order {
			at[nums[i]>>shift&0xff+1]++
		}
		for b := 1; b < len(at); b++ {
			at[b] += at[b-1]
		}
		for _, i := range order {
			b := nums[i] >> shift & 0xff
			tmp[at[b]] = i
			at[b]++
		}
		order, tmp = tmp, order
	}
	return order
}

// indexOf returns host h's index, or false if h is not indexed.
func (ix *Index) indexOf(h topology.NodeID) (int, bool) {
	if h < 0 || int(h) >= len(ix.pos) || ix.pos[h] < 0 {
		return 0, false
	}
	return int(ix.pos[h]), true
}

// Len returns the number of indexed hosts.
func (ix *Index) Len() int { return len(ix.hosts) }

// Hosts returns the indexed hosts (fresh slice).
func (ix *Index) Hosts() []topology.NodeID {
	return append([]topology.NodeID(nil), ix.hosts...)
}

// VectorOf returns the landmark vector of an indexed host (nil if absent).
func (ix *Index) VectorOf(h topology.NodeID) landmark.Vector {
	if i, ok := ix.indexOf(h); ok {
		return ix.vectors[i]
	}
	return nil
}

// Candidates returns up to k indexed hosts (excluding query) ranked for
// physical closeness to query: a window around query's landmark number on
// the curve, re-sorted by full-vector distance. This is the paper's
// pre-selection step.
func (ix *Index) Candidates(query topology.NodeID, k int) []topology.NodeID {
	qi, ok := ix.indexOf(query)
	if !ok || k < 1 {
		return nil
	}
	// Window on the number order: 3k entries around the query's position.
	window := make([]int, 0, 3*k)
	curveWindow(ix.byNum, ix.numbers, qi, 3*k, func(idx int) { window = append(window, idx) })
	return topHosts(window, ix.vectors[qi], ix.vectors, ix.hosts, k)
}

// topHosts ranks host indices by distance from vectors[i] to q (ties by
// host) and returns the hosts of the first k.
func topHosts(idxs []int, q landmark.Vector, vectors []landmark.Vector, hosts []topology.NodeID, k int) []topology.NodeID {
	landmark.Rank(idxs, q,
		func(i int) landmark.Vector { return vectors[i] },
		func(i int) topology.NodeID { return hosts[i] }, nil)
	out := make([]topology.NodeID, min(k, len(idxs)))
	for i := range out {
		out[i] = hosts[idxs[i]]
	}
	return out
}

// curveWindow walks byNum (indices into nums, sorted by number) outward
// from entry skip's number, the nearer side first (ties to the lower),
// and calls visit for up to want entries other than skip.
func curveWindow(byNum []int, nums []uint64, skip, want int, visit func(idx int)) {
	q := nums[skip]
	at := sort.Search(len(byNum), func(i int) bool { return nums[byNum[i]] >= q })
	lo, hi := at-1, at
	for want > 0 && (lo >= 0 || hi < len(byNum)) {
		var idx int
		if hi >= len(byNum) || lo >= 0 && q-nums[byNum[lo]] <= nums[byNum[hi]]-q {
			idx = byNum[lo]
			lo--
		} else {
			idx = byNum[hi]
			hi++
		}
		if idx != skip {
			visit(idx)
			want--
		}
	}
}

// Result reports one nearest-neighbor search.
type Result struct {
	// Found is the host the algorithm chose (None if it found nothing).
	Found topology.NodeID
	// FoundRTT is the measured RTT to Found.
	FoundRTT float64
	// Probes is the number of RTT measurements spent.
	Probes int
}

// SearchHybrid runs the paper's hybrid scheme for query: pre-select up to
// budget candidates by landmark position, RTT-probe each, return the
// closest measured. budget is the "# RTT measurements" axis of Figures
// 3 and 5; budget 1 degenerates to landmark clustering alone.
func (ix *Index) SearchHybrid(env *netsim.Env, query topology.NodeID, budget int) Result {
	return probeRanked(env, query, ix.Candidates(query, budget), budget)
}

// probeRanked spends up to budget probes from query on ranked candidates
// under landmark.ProbeBest's rule: a timed-out candidate never wins.
func probeRanked(env *netsim.Env, query topology.NodeID, cands []topology.NodeID, budget int) Result {
	best, rtt, probes := landmark.ProbeBest(cands, budget, func(c topology.NodeID) (float64, float64, bool) {
		r := env.ProbeRTT(query, c)
		return r, r, true
	}, nil)
	res := Result{Found: topology.None, Probes: probes}
	if best >= 0 {
		res.Found, res.FoundRTT = cands[best], rtt
	}
	return res
}

// ERS is expanding-ring search over a CAN built on the full host
// population (the paper's setup: "we construct a 2-dimensional CAN
// consisting of all nodes in the topology"). Rings expand over CAN
// neighbor hops from the query's own zone; every newly reached member
// costs one RTT probe.
type ERS struct {
	overlay *can.Overlay
	byHost  []*can.Member // indexed by host; nil where the host is no member
}

// NewERS indexes the overlay's members by host. Every indexed host must
// own exactly one zone.
func NewERS(overlay *can.Overlay) (*ERS, error) {
	if overlay == nil {
		return nil, errors.New("proximity: nil overlay")
	}
	members := overlay.Members()
	maxHost := topology.None
	for _, m := range members {
		if m.Host < 0 {
			return nil, fmt.Errorf("proximity: invalid host %d", m.Host)
		}
		maxHost = max(maxHost, m.Host)
	}
	e := &ERS{overlay: overlay, byHost: make([]*can.Member, maxHost+1)}
	for _, m := range members {
		if e.byHost[m.Host] != nil {
			return nil, fmt.Errorf("proximity: host %d owns multiple zones", m.Host)
		}
		e.byHost[m.Host] = m
	}
	return e, nil
}

// member returns host h's member, or nil if h is not a member.
func (e *ERS) member(h topology.NodeID) *can.Member {
	if h < 0 || int(h) >= len(e.byHost) {
		return nil
	}
	return e.byHost[h]
}

// Search expands rings from query's own zone, probing every member it
// reaches, until budget probes are spent or the overlay is exhausted.
func (e *ERS) Search(env *netsim.Env, query topology.NodeID, budget int) Result {
	res := Result{Found: topology.None}
	start := e.member(query)
	if start == nil || budget < 1 {
		return res
	}
	visited := map[*can.Member]struct{}{start: {}}
	ring := []*can.Member{start}
	for len(ring) > 0 && res.Probes < budget {
		var next []*can.Member
		for _, m := range ring {
			for _, nb := range m.Neighbors() {
				if _, seen := visited[nb]; seen {
					continue
				}
				visited[nb] = struct{}{}
				next = append(next, nb)
			}
		}
		// Probe the new ring (deterministic order for reproducibility).
		sort.Slice(next, func(a, b int) bool { return next[a].Host < next[b].Host })
		for _, m := range next {
			if res.Probes >= budget {
				break
			}
			rtt := env.ProbeRTT(query, m.Host)
			res.Probes++
			if res.Found == topology.None || rtt < res.FoundRTT {
				res.Found, res.FoundRTT = m.Host, rtt
			}
		}
		ring = next
	}
	return res
}

// SearchHillClimb is the heuristic baseline the paper contrasts with
// (§1, §4): start at a member of the overlay, probe its CAN neighbors,
// greedily move to the closest, and stop at a local minimum. It contacts
// far fewer nodes than expanding-ring search but "may stumble at local
// minimum pitfalls" — the overlay's neighbor graph is laid out by zone
// geometry, not physical proximity, so the closest physical neighbor is
// usually not reachable by monotone descent.
func (e *ERS) SearchHillClimb(env *netsim.Env, query topology.NodeID, budget int) Result {
	res := Result{Found: topology.None}
	cur := e.member(query)
	if cur == nil || budget < 1 {
		return res
	}
	curRTT := 0.0 // query to itself; any neighbor is an improvement to start
	first := true
	visited := map[*can.Member]struct{}{cur: {}}
	for res.Probes < budget {
		var best *can.Member
		bestRTT := 0.0
		for _, nb := range sortedNeighbors(cur) {
			if _, seen := visited[nb]; seen {
				continue
			}
			if res.Probes >= budget {
				break
			}
			visited[nb] = struct{}{}
			rtt := env.ProbeRTT(query, nb.Host)
			res.Probes++
			if res.Found == topology.None || rtt < res.FoundRTT {
				res.Found, res.FoundRTT = nb.Host, rtt
			}
			if best == nil || rtt < bestRTT {
				best, bestRTT = nb, rtt
			}
		}
		if best == nil {
			break // all neighbors visited
		}
		if !first && bestRTT >= curRTT {
			break // local minimum: no neighbor improves
		}
		cur, curRTT = best, bestRTT
		first = false
	}
	return res
}

// sortedNeighbors returns a member's neighbors in deterministic order.
func sortedNeighbors(m *can.Member) []*can.Member {
	nbs := m.Neighbors()
	sort.Slice(nbs, func(i, j int) bool { return nbs[i].Host < nbs[j].Host })
	return nbs
}

// Stretch evaluates a search result: the one-way distance to the found
// host divided by the distance to the true nearest member of members
// (query excluded). It returns 1 for an exact hit and +Inf when the search
// found nothing.
func Stretch(net *topology.Network, query topology.NodeID, found topology.NodeID, members []topology.NodeID) float64 {
	if found == topology.None {
		return math.Inf(1)
	}
	best, bestD := net.Nearest(query, members)
	if best == topology.None || bestD == 0 {
		return math.Inf(1)
	}
	return net.Latency(query, found) / bestD
}
