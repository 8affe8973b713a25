package proximity

import (
	"errors"
	"fmt"
	"sort"

	"gsso/internal/landmark"
	"gsso/internal/netsim"
	"gsso/internal/topology"
)

// GroupedIndex implements the first optimization of §5.4: "divide a large
// number of landmarks into groups, and each node computes a set of
// landmark positions. All these positions are then joined together to
// reduce false clustering."
//
// Each group of landmarks defines its own space-filling-curve reduction;
// a node therefore has one landmark number per group. Pre-selection
// gathers a curve window in every group and unions them before the
// full-vector ranking, so a false collision in one group's curve is
// rescued by the other groups.
type GroupedIndex struct {
	set     landmark.Set
	spaces  []*landmark.Space // one per group
	offsets []int             // start of each group's dims in the full vector
	hosts   []topology.NodeID
	vectors []landmark.Vector
	numbers [][]uint64 // [group][hostIdx]
	byNum   [][]int    // [group] host indices sorted by that group's number
	pos     map[topology.NodeID]int
}

// BuildGroupedIndex measures every host's full landmark vector (metered,
// one probe per landmark as usual) and builds per-group curve orders.
// groups must divide into at least 2 landmarks each.
func BuildGroupedIndex(env *netsim.Env, set landmark.Set, groups, bitsPerDim int,
	maxRTT float64, hosts []topology.NodeID) (*GroupedIndex, error) {
	if env == nil {
		return nil, errors.New("proximity: nil env")
	}
	if len(hosts) == 0 {
		return nil, errors.New("proximity: no hosts")
	}
	if groups < 1 || set.Len()/groups < 2 {
		return nil, fmt.Errorf("proximity: %d groups over %d landmarks leaves <2 landmarks per group",
			groups, set.Len())
	}
	g := &GroupedIndex{
		set:     set,
		hosts:   append([]topology.NodeID(nil), hosts...),
		vectors: make([]landmark.Vector, len(hosts)),
		pos:     make(map[topology.NodeID]int, len(hosts)),
	}
	landmarkNodes := set.Nodes()
	per := set.Len() / groups
	for grp := 0; grp < groups; grp++ {
		start := grp * per
		end := start + per
		if grp == groups-1 {
			end = set.Len()
		}
		subSet := landmark.NewSet(landmarkNodes[start:end])
		dims := end - start
		if dims > 3 {
			dims = 3 // the appendix's landmark vector index size
		}
		space, err := landmark.NewSpace(subSet, dims, bitsPerDim, maxRTT)
		if err != nil {
			return nil, err
		}
		g.spaces = append(g.spaces, space)
		g.offsets = append(g.offsets, start)
	}

	g.numbers = make([][]uint64, len(g.spaces))
	g.byNum = make([][]int, len(g.spaces))
	for grp := range g.spaces {
		g.numbers[grp] = make([]uint64, len(hosts))
		g.byNum[grp] = make([]int, len(hosts))
	}
	for i, h := range g.hosts {
		vec := landmark.Measure(env, h, set)
		g.vectors[i] = vec
		g.pos[h] = i
		for grp, space := range g.spaces {
			sub := g.subVector(vec, grp)
			num, err := space.Number(sub)
			if err != nil {
				return nil, fmt.Errorf("proximity: host %d group %d: %w", h, grp, err)
			}
			g.numbers[grp][i] = num
		}
	}
	for grp := range g.spaces {
		grp := grp
		for i := range g.byNum[grp] {
			g.byNum[grp][i] = i
		}
		sort.Slice(g.byNum[grp], func(a, b int) bool {
			ia, ib := g.byNum[grp][a], g.byNum[grp][b]
			if g.numbers[grp][ia] != g.numbers[grp][ib] {
				return g.numbers[grp][ia] < g.numbers[grp][ib]
			}
			return g.hosts[ia] < g.hosts[ib]
		})
	}
	return g, nil
}

// subVector slices the full vector down to one group's landmarks.
func (g *GroupedIndex) subVector(vec landmark.Vector, grp int) landmark.Vector {
	start := g.offsets[grp]
	end := start + g.spaces[grp].Set().Len()
	return vec[start:end]
}

// Groups returns the number of landmark groups.
func (g *GroupedIndex) Groups() int { return len(g.spaces) }

// Len returns the number of indexed hosts.
func (g *GroupedIndex) Len() int { return len(g.hosts) }

// Candidates unions a per-group curve window around the query and ranks
// the union by full-vector distance, returning up to k hosts.
func (g *GroupedIndex) Candidates(query topology.NodeID, k int) []topology.NodeID {
	qi, ok := g.pos[query]
	if !ok || k < 1 {
		return nil
	}
	perGroup := max(3*k/len(g.spaces), k)
	seen := map[int]struct{}{}
	var union []int
	for grp := range g.spaces {
		curveWindow(g.byNum[grp], g.numbers[grp], qi, perGroup, func(idx int) {
			if _, dup := seen[idx]; !dup {
				seen[idx] = struct{}{}
				union = append(union, idx)
			}
		})
	}
	return topHosts(union, g.vectors[qi], g.vectors, g.hosts, k)
}

// SearchHybrid runs the grouped hybrid: grouped pre-selection, then up to
// budget RTT probes.
func (g *GroupedIndex) SearchHybrid(env *netsim.Env, query topology.NodeID, budget int) Result {
	return probeRanked(env, query, g.Candidates(query, budget), budget)
}
