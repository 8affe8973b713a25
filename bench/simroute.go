package main

import (
	"errors"
	"fmt"

	"gsso/internal/can"
	"gsso/internal/core"
	"gsso/internal/ecan"
	"gsso/internal/landmark"
	"gsso/internal/netsim"
	"gsso/internal/simrand"
	"gsso/internal/softstate"
	"gsso/internal/topology"
)

// sim-route: the Figure 10-16 inner loop. The stack is assembled exactly as
// experiment.buildStack assembles it, from public constructors; one pass
// installs the soft-state selector (which drops every cached table entry)
// and routes every seeded member pair.

const (
	routeLandmarks = 15
	routeBudget    = 10 // RTT probes per selection
	lookupProbes   = 4096
	nearestProbes  = 1024
)

// routePair is one op: indices into the overlay's canonical member order.
type routePair struct{ src, dst int32 }

// genRoutePairs draws n pairs of distinct members. BuildUniform puts every
// member on its own host, so distinct members have a non-zero direct
// latency and every stretch is defined.
func genRoutePairs(seed uint64, members, n int) []routePair {
	rng := simrand.New(seed).Split("sim-route/pairs")
	out := make([]routePair, 0, n)
	for len(out) < n {
		s, d := rng.Intn(members), rng.Intn(members)
		if s != d {
			out = append(out, routePair{int32(s), int32(d)})
		}
	}
	return out
}

type simRoute struct {
	seed    uint64
	net     *topology.Network
	env     *netsim.Env
	overlay *ecan.Overlay
	store   *softstate.Store
	sel     *softstate.Selector
	members []*can.Member
	pairs   []routePair
}

func prepareSimRoute(cfg config) (func(int, *tracer) (instance, error), error) {
	sz := cfg.sizes()
	pairs := genRoutePairs(cfg.seed, sz.overlayN, sz.routePairs)
	return func(_ int, tr *tracer) (instance, error) {
		return buildSimRoute(cfg.seed, sz, pairs, tr)
	}, nil
}

func buildSimRoute(seed uint64, sz sizes, pairs []routePair, tr *tracer) (*simRoute, error) {
	rng := simrand.New(seed).Split("sim-route")
	tr.begin("topology.generate")
	net, err := topology.Generate(topology.TSKLarge(topology.GTITMLatency()).Scaled(sz.topoScale), rng.Split("topo"))
	tr.end()
	if err != nil {
		return nil, err
	}
	env := netsim.NewRun(net, "bench")
	tr.begin("ecan.build_uniform")
	overlay, err := ecan.BuildUniform(net, sz.overlayN, 2, 0,
		ecan.RandomSelector{RNG: rng.Split("select")}, rng.Split("overlay"))
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin("landmark.space")
	set, err := landmark.Choose(net, routeLandmarks, rng.Split("landmarks"))
	if err != nil {
		return nil, err
	}
	maxRTT := landmark.EstimateMaxRTT(net, set, net.RandomStubHosts(rng.Split("estimate"), 32))
	space, err := landmark.NewSpace(set, 3, 6, maxRTT)
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin("softstate.publish_all")
	store, err := softstate.NewStore(overlay, space, env, softstate.Config{
		TTL:          1e9, // static membership: nothing expires during a run
		MaxReturn:    32,
		ExpandBudget: 8,
	})
	if err == nil {
		err = store.PublishAll(nil)
	}
	tr.end()
	if err != nil {
		return nil, err
	}
	sel, err := softstate.NewSelector(store, routeBudget, ecan.RandomSelector{RNG: rng.Split("fallback")})
	if err != nil {
		return nil, err
	}
	return &simRoute{
		seed: seed, net: net, env: env, overlay: overlay, store: store, sel: sel,
		members: overlay.CAN().Members(), pairs: pairs,
	}, nil
}

func (s *simRoute) clients() int                 { return 1 }
func (s *simRoute) close()                       {}
func (s *simRoute) counters() map[string]float64 { return nil }

// route runs one op and checks that it ended at the member owning the
// destination's zone.
func (s *simRoute) route(p routePair, tr *tracer) (ecan.RouteResult, error) {
	src, dst := s.members[p.src], s.members[p.dst]
	tr.begin("ecan.route")
	res, err := s.overlay.Route(src, dst.ZoneCenter())
	tr.end()
	if err != nil {
		return res, err
	}
	if res.Members[len(res.Members)-1] != dst {
		return res, fmt.Errorf("route %d->%d ended at the wrong member", p.src, p.dst)
	}
	return res, nil
}

// tracedSelector times every Selector.Select from outside.
func (s *simRoute) tracedSelector(tr *tracer) ecan.Selector {
	return ecan.FuncSelector(func(self *can.Member, region can.Path, cands []*can.Member) *can.Member {
		tr.begin("softstate.select")
		m := s.sel.Select(self, region, cands)
		tr.end()
		return m
	})
}

func (s *simRoute) op(_, i int, tr *tracer) (int64, error) {
	k := i % len(s.pairs)
	if k == 0 { // a new pass: SetSelector drops every cached table entry
		if tr != nil {
			s.overlay.SetSelector(s.tracedSelector(tr))
		} else {
			s.overlay.SetSelector(s.sel)
		}
	}
	_, err := s.route(s.pairs[k], tr)
	return 1, err
}

// verify is the first pass: every route must end at the owner of the
// destination's zone with stretch >= 1. Its probe and message counts per
// route and its mean stretch are the deterministic quality numbers.
func (s *simRoute) verify(out map[string]float64) (attempted, failed int64) {
	probes0, msgs0 := s.env.Probes(), totalMessages(s.env)
	s.overlay.SetSelector(s.sel)
	sum, n := 0.0, 0
	for _, p := range s.pairs {
		attempted++
		res, err := s.route(p, nil)
		if err != nil {
			failed++
			continue
		}
		direct := s.env.Latency(s.members[p.src].Host, s.members[p.dst].Host)
		stretch := res.Latency(s.env) / direct
		if !(stretch >= 1-1e-9) {
			failed++
			continue
		}
		sum += stretch
		n++
	}
	ops := float64(len(s.pairs))
	if n > 0 {
		out["sim.stretch_mean"] = sum / float64(n)
	}
	out["sim.probes_per_op"] = float64(s.env.Probes()-probes0) / ops
	out["netsim.msgs_per_op"] = float64(totalMessages(s.env)-msgs0) / ops
	return attempted, failed
}

func totalMessages(env *netsim.Env) int64 {
	total := int64(0)
	for _, n := range env.MessageTotals() {
		total += n
	}
	return total
}

// probe times Store.Lookup on the inputs real selections used, and the
// assembled core.System API over the same network.
func (s *simRoute) probe(tr *tracer, _ map[string]float64) error {
	type lookupIn struct {
		region can.Path
		vec    landmark.Vector
	}
	var inputs []lookupIn
	s.overlay.SetSelector(ecan.FuncSelector(func(self *can.Member, region can.Path, cands []*can.Member) *can.Member {
		if vec := s.store.Vector(self); vec != nil && len(inputs) < lookupProbes {
			inputs = append(inputs, lookupIn{region, vec})
		}
		return s.sel.Select(self, region, cands)
	}))
	for _, p := range s.pairs {
		if len(inputs) >= lookupProbes {
			break
		}
		if _, err := s.route(p, nil); err != nil {
			return err
		}
	}
	if len(inputs) == 0 {
		return errors.New("sim-route: no selections to replay")
	}
	for _, in := range inputs {
		tr.begin("softstate.lookup")
		_, _, err := s.store.Lookup(in.region, in.vec)
		tr.end()
		if err != nil {
			return err
		}
	}

	sys, err := core.New(core.WithNetwork(s.net), core.WithSeed(s.seed),
		core.WithOverlaySize(len(s.members)), core.WithLandmarks(routeLandmarks),
		core.WithProbeBudget(routeBudget), core.WithRunLabel("bench-core"))
	if err != nil {
		return err
	}
	members := sys.Members()
	for _, p := range s.pairs {
		tr.begin("core.route_to")
		_, err := sys.RouteTo(members[p.src], members[p.dst])
		tr.end()
		if err != nil {
			return err
		}
	}
	for i := 0; i < nearestProbes && i < len(members); i++ {
		tr.begin("core.nearest_member")
		_, err := sys.NearestMember(members[i])
		tr.end()
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *simRoute) derive(ph phase, lv layerView, out map[string]float64) {
	out["topology.generate_ms"] = lv.mean("topology.generate") / 1e6
	out["ecan.build_uniform_ms"] = lv.mean("ecan.build_uniform") / 1e6
	out["landmark.space_ms"] = lv.mean("landmark.space") / 1e6
	out["softstate.publish_all_ms"] = lv.mean("softstate.publish_all") / 1e6
	out["softstate.select_us"] = lv.mean("softstate.select") / 1e3
	if routes := lv.count("ecan.route"); routes > 0 {
		out["softstate.selects_per_op"] = lv.count("softstate.select") / routes
	}
	out["softstate.lookup_us"] = lv.mean("softstate.lookup") / 1e3
	out["ecan.route_self_us"] = lv.meanSelf("ecan.route") / 1e3
	out["core.route_to_us"] = lv.mean("core.route_to") / 1e3
	out["core.nearest_member_us"] = lv.mean("core.nearest_member") / 1e3
}
