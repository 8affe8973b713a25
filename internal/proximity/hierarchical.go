package proximity

import (
	"errors"

	"gsso/internal/landmark"
	"gsso/internal/netsim"
	"gsso/internal/topology"
)

// HierarchicalIndex implements the second optimization of §5.4: "use
// hierarchical landmark spaces. A small number of widely scattered
// landmarks are used to do a preselection, and localized landmarks are
// then used to refine the result."
//
// The global space (few landmarks, one curve) supplies the coarse
// candidate pool exactly as the flat hybrid does; the refinement then
// re-ranks the pool by distance in a second, denser space of localized
// landmarks, whose extra resolution separates hosts the global space
// lumps together (the tsk-small failure mode).
type HierarchicalIndex struct {
	global    *Index
	localSet  landmark.Set
	localVecs map[topology.NodeID]landmark.Vector
}

// BuildHierarchicalIndex measures every host against both landmark sets
// (metered: this is the scheme's higher join cost) and builds the index.
func BuildHierarchicalIndex(env *netsim.Env, globalSpace *landmark.Space,
	localSet landmark.Set, hosts []topology.NodeID) (*HierarchicalIndex, error) {
	if localSet.Len() == 0 {
		return nil, errors.New("proximity: empty local landmark set")
	}
	global, err := BuildIndex(env, globalSpace, hosts)
	if err != nil {
		return nil, err
	}
	hx := &HierarchicalIndex{
		global:    global,
		localSet:  localSet,
		localVecs: make(map[topology.NodeID]landmark.Vector, len(hosts)),
	}
	for _, h := range hosts {
		hx.localVecs[h] = landmark.Measure(env, h, localSet)
	}
	return hx, nil
}

// JoinProbesPerHost returns the number of RTT measurements each host paid
// at index-build time (global + local landmark sets).
func (hx *HierarchicalIndex) JoinProbesPerHost() int {
	return hx.global.space.Set().Len() + hx.localSet.Len()
}

// GlobalOnly exposes the coarse global index (for ablations comparing the
// hierarchy against its own first stage).
func (hx *HierarchicalIndex) GlobalOnly() *Index { return hx.global }

// Candidates pre-selects a pool through the global curve, then re-ranks
// it by local-landmark distance and returns the top k.
func (hx *HierarchicalIndex) Candidates(query topology.NodeID, k int) []topology.NodeID {
	qLocal, ok := hx.localVecs[query]
	if !ok || k < 1 {
		return nil
	}
	pool := hx.global.Candidates(query, 8*k)
	landmark.Rank(pool, qLocal,
		func(h topology.NodeID) landmark.Vector { return hx.localVecs[h] },
		func(h topology.NodeID) topology.NodeID { return h }, nil)
	return pool[:min(k, len(pool))]
}

// SearchHybrid runs the hierarchical hybrid: coarse global pre-selection,
// local refinement, then up to budget RTT probes.
func (hx *HierarchicalIndex) SearchHybrid(env *netsim.Env, query topology.NodeID, budget int) Result {
	return probeRanked(env, query, hx.Candidates(query, budget), budget)
}
