package main

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"gsso/internal/can"
	"gsso/internal/landmark"
	"gsso/internal/netsim"
	"gsso/internal/proximity"
	"gsso/internal/simrand"
	"gsso/internal/topology"
)

// sim-scale: the ext-scale trajectory. One op builds one whole world the way
// experiment.RunScaleCell builds it (wide topology, landmark index over all
// stub hosts, full-population CAN, ERS) and runs the hybrid and
// expanding-ring searches on it; worlds are built back to back from
// sub-seeds w0, w1, ...

const (
	scaleLandmarks = 15
	scaleBudget    = 10 // RTT probes per search
)

// world is one built world and what its searches returned.
type world struct {
	net     *topology.Network
	hosts   []topology.NodeID
	queries []topology.NodeID
	hybrid  []proximity.Result
	ers     []proximity.Result
	probes  int64 // RTT probes the build and its searches spent
	msgs    int64
}

// worldLabel names the sub-seed of world idx; the op list of sim-scale is
// this sequence.
func worldLabel(idx int) string { return fmt.Sprintf("sim-scale/w%d", idx) }

func buildWorld(seed uint64, idx int, sz sizes, tr *tracer) (*world, error) {
	rng := simrand.New(seed).Split(worldLabel(idx))
	tr.begin("world")
	defer tr.end()

	tr.begin("topology.generate")
	net, err := topology.Generate(topology.TSKLarge(topology.GTITMLatency()).SizedWide(sz.worldHosts), rng.Split("topo"))
	tr.end()
	if err != nil {
		return nil, err
	}
	env := netsim.NewRun(net, "bench")
	hosts := net.StubHosts()

	tr.begin("landmark.space")
	set, err := landmark.Choose(net, scaleLandmarks, rng.Split("landmarks"))
	if err != nil {
		tr.end()
		return nil, err
	}
	space, err := landmark.NewSpace(set, 3, 6,
		landmark.EstimateMaxRTT(net, set, net.RandomStubHosts(rng.Split("est"), 32)))
	tr.end()
	if err != nil {
		return nil, err
	}

	tr.begin("proximity.build_index")
	index, err := proximity.BuildIndex(env, space, hosts)
	tr.end()
	if err != nil {
		return nil, err
	}

	overlay, err := can.New(2)
	if err != nil {
		return nil, err
	}
	joinRNG := rng.Split("join")
	tr.begin("can.join")
	for _, h := range hosts {
		if _, err = overlay.JoinRandom(h, joinRNG); err != nil {
			break
		}
	}
	tr.end()
	if err != nil {
		return nil, err
	}

	tr.begin("proximity.new_ers")
	ers, err := proximity.NewERS(overlay)
	tr.end()
	if err != nil {
		return nil, err
	}

	w := &world{net: net, hosts: hosts}
	for _, q := range rng.Split("queries").Sample(len(hosts), sz.worldQueries) {
		host := hosts[q]
		w.queries = append(w.queries, host)
		tr.begin("proximity.hybrid")
		w.hybrid = append(w.hybrid, index.SearchHybrid(env, host, scaleBudget))
		tr.end()
		tr.begin("proximity.ers")
		w.ers = append(w.ers, ers.Search(env, host, scaleBudget))
		tr.end()
	}
	w.probes, w.msgs = env.Probes(), totalMessages(env)
	return w, nil
}

// checkSearches counts the search results that are not an indexed host other
// than the query.
func (w *world) checkSearches() (attempted, failed int64) {
	indexed := func(h topology.NodeID) bool {
		i := sort.Search(len(w.hosts), func(i int) bool { return w.hosts[i] >= h })
		return i < len(w.hosts) && w.hosts[i] == h
	}
	for i, q := range w.queries {
		for _, found := range []topology.NodeID{w.hybrid[i].Found, w.ers[i].Found} {
			attempted++
			if found == topology.None || found == q || !indexed(found) {
				failed++
			}
		}
	}
	return attempted, failed
}

type simScale struct {
	seed  uint64
	sz    sizes
	next  int    // index of the next world to build
	hosts int    // stub hosts per world
	kept  *world // the last set-up world, until verify is done with it
}

func prepareSimScale(cfg config) (func(int, *tracer) (instance, error), error) {
	sz := cfg.sizes()
	return func(round int, tr *tracer) (instance, error) {
		w, err := buildWorld(cfg.seed, round, sz, tr)
		if err != nil {
			return nil, err
		}
		return &simScale{seed: cfg.seed, sz: sz, next: round + 1, hosts: len(w.hosts), kept: w}, nil
	}, nil
}

func (s *simScale) clients() int                 { return 1 }
func (s *simScale) close()                       {}
func (s *simScale) counters() map[string]float64 { return nil }

func (s *simScale) op(_, _ int, tr *tracer) (int64, error) {
	w, err := buildWorld(s.seed, s.next, s.sz, tr)
	s.next++
	if err != nil {
		return int64(s.hosts), err
	}
	if _, failed := w.checkSearches(); failed > 0 {
		return int64(len(w.hosts)), fmt.Errorf("%d searches returned no valid host", failed)
	}
	return int64(len(w.hosts)), nil
}

// verify checks the kept world: every search result is an indexed host other
// than the query, and the hybrid scheme beats expanding-ring search at equal
// probe budget (the Figures 3-6 claim). The oracle behind the stretches is a
// scan over every host, which is why it runs here and not in an op.
func (s *simScale) verify(out map[string]float64) (attempted, failed int64) {
	w := s.kept
	s.kept = nil // the measured phase holds one world at a time
	attempted, failed = w.checkSearches()
	mean := func(res []proximity.Result) (float64, error) {
		sum, n := 0.0, 0
		for i, r := range res {
			st := proximity.Stretch(w.net, w.queries[i], r.Found, w.hosts)
			if st < 1-1e-9 {
				return 0, errors.New("stretch below 1")
			}
			if !math.IsInf(st, 1) { // a search that found nothing is skipped, like Figures 3-6
				sum += st
				n++
			}
		}
		if n == 0 {
			return 0, errors.New("no measurable search")
		}
		return sum / float64(n), nil
	}
	attempted++
	hybrid, herr := mean(w.hybrid)
	ers, eerr := mean(w.ers)
	if herr != nil || eerr != nil || !(hybrid < ers) {
		failed++
	}
	out["sim.stretch_mean"] = hybrid
	out["sim.probes_per_op"] = float64(w.probes) / float64(len(w.hosts))
	out["netsim.msgs_per_op"] = float64(w.msgs) / float64(len(w.hosts))
	return attempted, failed
}

func (s *simScale) probe(*tracer, map[string]float64) error { return nil }

func (s *simScale) derive(ph phase, lv layerView, out map[string]float64) {
	out["topology.generate_ms"] = lv.mean("topology.generate") / 1e6
	out["landmark.space_ms"] = lv.mean("landmark.space") / 1e6
	out["proximity.build_index_ms"] = lv.mean("proximity.build_index") / 1e6
	out["can.join_ms"] = lv.mean("can.join") / 1e6
	out["can.join_us"] = lv.mean("can.join") / 1e3 / float64(s.hosts)
	out["proximity.new_ers_ms"] = lv.mean("proximity.new_ers") / 1e6
	out["proximity.hybrid_us"] = lv.mean("proximity.hybrid") / 1e3
	out["proximity.ers_us"] = lv.mean("proximity.ers") / 1e3
}
