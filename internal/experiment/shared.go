package experiment

import (
	"gsso/internal/can"
	"gsso/internal/experiment/engine"
	"gsso/internal/landmark"
	"gsso/internal/netsim"
	"gsso/internal/proximity"
	"gsso/internal/simrand"
	"gsso/internal/topology"
)

// SharedRun is the telemetry run label charged for cache fills. Probes
// spent building a shared artifact (the nearest-neighbor index's landmark
// matrix) are attributed here rather than to whichever experiment happened
// to trigger the fill, so per-experiment telemetry is identical at every
// worker count.
const SharedRun = "shared"

// netKey identifies one generated topology. topology.Generate is a pure
// function of these four values (the generation streams derive from
// seed + kind + lat alone), and the resulting Network is immutable, so
// every experiment needing the same preset shares one instance.
type netKey struct {
	kind      TopoKind
	lat       LatKind
	topoScale float64
	seed      uint64
}

var netCache engine.Memo[netKey, *topology.Network]

// nnKey identifies one nearest-neighbor harness core (Figures 3-6). The
// landmark-vector matrix is keyed on top of the topology key by the
// parameters that shape it.
type nnKey struct {
	netKey
	landmarks int
	nnQueries int
}

var nnCache engine.Memo[nnKey, *nnCore]

// TopologyGenerations returns how many distinct topologies were generated
// and how many buildNet calls were served from cache — the "≤ one
// generation per distinct (kind, lat, scale, seed)" invariant is
// generations == distinct keys requested.
func TopologyGenerations() (generations, cacheHits int64) {
	hits, misses := netCache.Stats()
	return misses, hits
}

// buildNet returns the requested preset topology at the scale's size,
// generating it at most once per distinct (kind, lat, TopoScale, Seed)
// process-wide. Concurrent callers for the same key block on a single
// generation. The returned Network is shared and immutable — dynamic
// state belongs in a per-caller netsim.Env.
func buildNet(kind TopoKind, lat LatKind, sc Scale) (*topology.Network, error) {
	key := netKey{kind: kind, lat: lat, topoScale: sc.TopoScale, seed: sc.Seed}
	return netCache.Do(key, func() (*topology.Network, error) {
		spec, err := topology.Preset(string(kind), string(lat))
		if err != nil {
			return nil, err
		}
		rng := simrand.New(sc.Seed).Split("topo/" + string(kind) + "/" + string(lat))
		return topology.Generate(spec.Scaled(sc.TopoScale), rng)
	})
}

// nnCore is the immutable heart of the Figures 3-6 harness: the topology,
// the landmark-vector index over every stub host, the full-population CAN
// for expanding-ring search, and the query set. All of it is read-only
// after construction and shared across experiments; per-experiment meters
// live in the nnHarness wrapper.
type nnCore struct {
	net     *topology.Network
	index   *proximity.Index
	ers     *proximity.ERS
	hosts   []topology.NodeID
	queries []topology.NodeID
}

// sharedNNCore returns the cached harness core for a topology kind,
// building it at most once per distinct key. The landmark measurements of
// the index build are metered under SharedRun.
func sharedNNCore(kind TopoKind, sc Scale) (*nnCore, error) {
	key := nnKey{
		netKey:    netKey{kind: kind, lat: LatGTITM, topoScale: sc.TopoScale, seed: sc.Seed},
		landmarks: sc.Landmarks,
		nnQueries: sc.NNQueries,
	}
	return nnCache.Do(key, func() (*nnCore, error) {
		net, err := buildNet(kind, LatGTITM, sc)
		if err != nil {
			return nil, err
		}
		env := netsim.NewRun(net, SharedRun)
		rng := simrand.New(sc.Seed).Split("nn/" + string(kind))
		hosts := net.StubHosts()

		space, err := landmark.Calibrate(net, sc.Landmarks, rng.Split("landmarks"), rng.Split("est"))
		if err != nil {
			return nil, err
		}
		index, err := proximity.BuildIndex(env, space, hosts)
		if err != nil {
			return nil, err
		}

		overlay, err := can.New(2)
		if err != nil {
			return nil, err
		}
		joinRNG := rng.Split("join")
		for _, h := range hosts {
			if _, err := overlay.JoinRandom(h, joinRNG); err != nil {
				return nil, err
			}
		}
		ers, err := proximity.NewERS(overlay)
		if err != nil {
			return nil, err
		}

		qRNG := rng.Split("queries")
		qIdx := qRNG.Sample(len(hosts), sc.NNQueries)
		queries := make([]topology.NodeID, len(qIdx))
		for i, q := range qIdx {
			queries[i] = hosts[q]
		}
		return &nnCore{net: net, index: index, ers: ers, hosts: hosts, queries: queries}, nil
	})
}
