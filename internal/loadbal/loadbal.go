// Package loadbal implements the paper's §6 extension: turning node
// heterogeneity to an advantage by publishing forwarding capacity and
// current load alongside proximity information, and trading network
// distance against load when selecting routing neighbors.
//
// The scoring rule follows the companion tech report ([20], "Turning
// Heterogeneity into an Advantage in Overlay Routing"): a candidate's
// effective cost is its RTT inflated by a congestion penalty that grows
// without bound as utilization approaches 1, so heavily loaded nodes are
// bypassed even when they are physically closest.
package loadbal

import (
	"errors"
	"math"

	"gsso/internal/can"
	"gsso/internal/ecan"
	"gsso/internal/landmark"
	"gsso/internal/netsim"
	"gsso/internal/simrand"
	"gsso/internal/softstate"
)

// Penalty returns the congestion multiplier for a node at the given load
// and capacity: 1 + alpha * u/(1-u) where u = load/capacity. Utilization
// at or beyond 1, or non-positive capacity, yields +Inf (the node is
// saturated and must not be selected). alpha = 0 disables balancing.
func Penalty(load, capacity, alpha float64) float64 {
	if alpha == 0 {
		return 1
	}
	if capacity <= 0 {
		return math.Inf(1)
	}
	u := load / capacity
	if u < 0 {
		u = 0
	}
	if u >= 1 {
		return math.Inf(1)
	}
	return 1 + alpha*u/(1-u)
}

// Score combines a measured RTT with the candidate's published load state.
func Score(rtt, load, capacity, alpha float64) float64 {
	return rtt * Penalty(load, capacity, alpha)
}

// Selector is capacity-aware proximity-neighbor selection: the soft-state
// lookup supplies candidates with their published load statistics, up to
// budget of them are RTT-probed, and the minimum Score wins.
type Selector struct {
	store    *softstate.Store
	budget   int
	alpha    float64
	fallback ecan.Selector
}

// Compile-time interface check.
var _ ecan.Selector = (*Selector)(nil)

// NewSelector builds a capacity-aware selector. alpha >= 0 sets how hard
// load repels selection (0 = pure proximity, equivalent to
// softstate.Selector).
func NewSelector(store *softstate.Store, budget int, alpha float64, fallback ecan.Selector) (*Selector, error) {
	if store == nil {
		return nil, errors.New("loadbal: nil store")
	}
	if budget < 1 {
		return nil, errors.New("loadbal: probe budget must be >= 1")
	}
	if alpha < 0 || math.IsNaN(alpha) {
		return nil, errors.New("loadbal: alpha must be >= 0")
	}
	return &Selector{store: store, budget: budget, alpha: alpha, fallback: fallback}, nil
}

// Select implements ecan.Selector.
func (s *Selector) Select(self *can.Member, region can.Path, candidates []*can.Member) *can.Member {
	vec := s.store.Vector(self)
	if vec != nil {
		entries, _, err := s.store.Lookup(region, vec)
		if err == nil && len(entries) > 0 {
			if best := s.probeBest(self, entries); best != nil {
				return best
			}
		}
	}
	if s.fallback != nil {
		return s.fallback.Select(self, region, candidates)
	}
	if len(candidates) > 0 {
		return candidates[0]
	}
	return nil
}

// probeBest probes up to budget candidates and scores them; saturated
// nodes (infinite penalty) lose to any unsaturated one, but a lookup of
// only saturated nodes still returns the first that answered.
func (s *Selector) probeBest(self *can.Member, entries []*softstate.Entry) *can.Member {
	env := s.store.Env()
	best, _, _ := landmark.ProbeBest(entries, s.budget, func(e *softstate.Entry) (float64, float64, bool) {
		if e.Member == self {
			return 0, 0, false
		}
		rtt := env.ProbeRTT(self.Host, e.Host)
		return rtt, Score(rtt, e.Load, e.Capacity, s.alpha), true
	}, func(e *softstate.Entry) { s.store.ReportUnreachable(e.Member) }) // §5.2's reactive deletion
	if best < 0 {
		return nil
	}
	return entries[best].Member
}

// Report summarizes one traffic round.
type Report struct {
	// MeanStretch is the average route stretch over the measured pairs.
	MeanStretch float64
	// Routes is the number of measured routes.
	Routes int
	// TotalHops is the number of forwarding events charged to members.
	TotalHops int
	// MaxUtilization and MeanUtilization describe member load/capacity
	// after the round.
	MaxUtilization  float64
	MeanUtilization float64
}

// RunTraffic routes nPairs random member pairs over the overlay, charging
// one unit of load to every intermediate forwarder (endpoints are free),
// and returns stretch plus the resulting utilization profile. loads is
// updated in place so rounds can accumulate; pass a fresh map to start
// cold. capacities must cover every member.
func RunTraffic(ov *ecan.Overlay, env *netsim.Env, capacities map[*can.Member]float64,
	loads map[*can.Member]float64, nPairs int, rng *simrand.Source) (Report, error) {
	if ov == nil || env == nil {
		return Report{}, errors.New("loadbal: nil overlay or env")
	}
	if loads == nil {
		return Report{}, errors.New("loadbal: nil loads map")
	}
	members := ov.CAN().Members()
	if len(members) < 2 {
		return Report{}, errors.New("loadbal: need at least two members")
	}
	rep := Report{}
	stretchSum := 0.0
	for i := 0; i < nPairs; i++ {
		src := members[rng.Intn(len(members))]
		dst := members[rng.Intn(len(members))]
		if src == dst || src.Host == dst.Host {
			continue
		}
		res, err := ov.Route(src, dst.ZoneCenter())
		if err != nil {
			return Report{}, err
		}
		direct := env.Latency(src.Host, dst.Host)
		if direct <= 0 {
			continue
		}
		stretchSum += res.Latency(env) / direct
		rep.Routes++
		for _, hop := range res.Members[1 : len(res.Members)-1] {
			loads[hop]++
			rep.TotalHops++
		}
	}
	if rep.Routes > 0 {
		rep.MeanStretch = stretchSum / float64(rep.Routes)
	}
	var utilSum float64
	counted := 0
	for _, m := range members {
		cap := capacities[m]
		if cap <= 0 {
			continue
		}
		u := loads[m] / cap
		utilSum += u
		counted++
		if u > rep.MaxUtilization {
			rep.MaxUtilization = u
		}
	}
	if counted > 0 {
		rep.MeanUtilization = utilSum / float64(counted)
	}
	return rep, nil
}

// AssignHeterogeneousCapacities draws per-member capacities from a heavy-
// tailed two-class distribution: a fraction strong of members get
// strongCap, the rest weakCap — the paper's observation that nodes near
// gateways forward better than modem-class nodes.
func AssignHeterogeneousCapacities(members []*can.Member, strong float64,
	strongCap, weakCap float64, rng *simrand.Source) map[*can.Member]float64 {
	out := make(map[*can.Member]float64, len(members))
	for _, m := range members {
		if rng.Bool(strong) {
			out[m] = strongCap
		} else {
			out[m] = weakCap
		}
	}
	return out
}
