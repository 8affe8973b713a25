// Package core assembles the paper's full system behind one API: a
// topology-aware eCAN overlay whose neighbor selection is driven by
// landmark+RTT proximity information stored as global soft-state on the
// overlay itself, with publish/subscribe maintenance.
//
// It is the integration layer the simulator examples and experiments
// build on; the individual mechanisms live in the focused packages (can,
// ecan, landmark, hilbert, softstate, pubsub, proximity, loadbal).
// The live daemon (cmd/overlayd) does not use it: it runs internal/wire.
package core

import (
	"errors"
	"fmt"
	"slices"

	"gsso/internal/can"
	"gsso/internal/ecan"
	"gsso/internal/landmark"
	"gsso/internal/netsim"
	"gsso/internal/pubsub"
	"gsso/internal/simrand"
	"gsso/internal/softstate"
	"gsso/internal/topology"
)

// config collects the tunables; adjust via Options.
type config struct {
	seed        uint64
	root        string
	overlayN    int
	landmarks   int
	probeBudget int
	maxReturn   int
	condense    int
	ttl         netsim.Time
	confirm     int
	net         *topology.Network
	run         string
}

func defaultConfig() config {
	return config{
		seed:        1,
		overlayN:    256,
		landmarks:   8,
		probeBudget: 10,
		maxReturn:   16,
		ttl:         60_000,
		confirm:     2,
	}
}

// Option customizes New.
type Option func(*config)

// WithSeed sets the deterministic root seed.
func WithSeed(seed uint64) Option { return func(c *config) { c.seed = seed } }

// WithStreamRoot roots every seed stream New draws at
// simrand.New(seed).Split(label) instead of simrand.New(seed), so several
// systems over one network and seed get independent streams.
func WithStreamRoot(label string) Option { return func(c *config) { c.root = label } }

// WithOverlaySize sets the number of overlay members.
func WithOverlaySize(n int) Option { return func(c *config) { c.overlayN = n } }

// WithLandmarks sets the landmark count.
func WithLandmarks(k int) Option { return func(c *config) { c.landmarks = k } }

// WithProbeBudget sets the RTT measurements spent per neighbor selection
// or nearest-neighbor query.
func WithProbeBudget(b int) Option { return func(c *config) { c.probeBudget = b } }

// WithMaxReturn sets X, the most candidates one soft-state map lookup
// returns (default 16); New raises it to the probe budget when smaller.
func WithMaxReturn(x int) Option { return func(c *config) { c.maxReturn = x } }

// WithCondenseDepth condenses each region's map into 2^-d of the region
// (the paper's condense/reduction rate 2^d; default 0, no condensing).
func WithCondenseDepth(d int) Option { return func(c *config) { c.condense = d } }

// WithSoftStateTTL overrides the soft-state entry lifetime (virtual ms).
// Experiments that tick a fast virtual clock shrink it so expiry — the
// paper's implicit failure signal — fires within their horizon.
func WithSoftStateTTL(ttl netsim.Time) Option { return func(c *config) { c.ttl = ttl } }

// WithConfirmThreshold sets how many independent suspicion signals
// (entry expiries, timed-out probes, external reports) a member must
// accumulate before the failure detector runs a confirmation probe.
func WithConfirmThreshold(n int) Option { return func(c *config) { c.confirm = n } }

// WithNetwork supplies the physical topology the system is deployed on
// (required). Networks are immutable, so many systems can share one.
func WithNetwork(net *topology.Network) Option { return func(c *config) { c.net = net } }

// WithRunLabel sets the env's telemetry run label (empty = "main"), so a
// System embedded in an experiment meters under that experiment's ID.
func WithRunLabel(run string) Option { return func(c *config) { c.run = run } }

// System is the assembled stack.
type System struct {
	cfg     config
	net     *topology.Network
	env     *netsim.Env
	overlay *ecan.Overlay
	space   *landmark.Space
	store   *softstate.Store
	bus     *pubsub.Bus
	rng     *simrand.Source

	// Per-member state beyond what the overlay knows, keyed by member
	// pointer. Members are never reused, so a departed member's entries
	// are simply deleted. kv holds each member's DHT shard, created on its
	// first Put; suspects counts the failure-suspicion signals each
	// suspected member has drawn.
	kv       map[*can.Member]map[string][]byte
	suspects map[*can.Member]int
}

// New builds a simulated deployment over the WithNetwork topology: joins
// the overlay members, calibrates the landmark space, publishes everyone's
// soft-state, and installs the global-state proximity selector.
func New(opts ...Option) (*System, error) {
	cfg := defaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	net := cfg.net
	if net == nil {
		return nil, errors.New("core: no network, pass WithNetwork")
	}
	if stubs := net.Len() - net.TransitCount(); cfg.overlayN < 2 || cfg.overlayN > stubs {
		return nil, fmt.Errorf("core: overlay size %d, need in [2, %d]", cfg.overlayN, stubs)
	}
	if cfg.probeBudget < 1 {
		return nil, fmt.Errorf("core: probe budget %d, need >= 1", cfg.probeBudget)
	}
	if cfg.maxReturn < 1 {
		return nil, fmt.Errorf("core: max return %d, need >= 1", cfg.maxReturn)
	}
	if cfg.condense < 0 {
		return nil, fmt.Errorf("core: condense depth %d, need >= 0", cfg.condense)
	}
	if cfg.confirm < 1 {
		return nil, fmt.Errorf("core: confirm threshold %d, need >= 1", cfg.confirm)
	}

	rng := simrand.New(cfg.seed)
	if cfg.root != "" {
		rng = rng.Split(cfg.root)
	}
	env := netsim.NewRun(net, cfg.run)
	// A 2-d eCAN, as in the paper. The random selector only stands in
	// until the soft-state selector below replaces it; nothing routes in
	// between.
	overlay, err := ecan.BuildUniform(net, cfg.overlayN, 2, 0,
		ecan.RandomSelector{RNG: rng.Split("select")}, rng.Split("overlay"))
	if err != nil {
		return nil, err
	}
	space, err := landmark.Calibrate(net, cfg.landmarks, rng.Split("landmarks"), rng.Split("estimate"))
	if err != nil {
		return nil, err
	}
	store, err := softstate.NewStore(overlay, space, env, softstate.Config{
		TTL:           cfg.ttl,
		CondenseDepth: cfg.condense,
		MaxReturn:     max(cfg.maxReturn, cfg.probeBudget),
		ExpandBudget:  8,
	})
	if err != nil {
		return nil, err
	}
	bus, err := pubsub.NewBus(store, env)
	if err != nil {
		return nil, err
	}
	if err := store.PublishAll(nil); err != nil {
		return nil, err
	}
	sel, err := softstate.NewSelector(store, cfg.probeBudget,
		ecan.RandomSelector{RNG: rng.Split("fallback")})
	if err != nil {
		return nil, err
	}
	overlay.SetSelector(sel)
	s := &System{
		cfg: cfg, net: net, env: env, overlay: overlay,
		space: space, store: store, bus: bus, rng: rng,
		kv: make(map[*can.Member]map[string][]byte), suspects: make(map[*can.Member]int),
	}
	// The failure detector listens to map churn alongside the pub/sub bus:
	// entry expiry is §5.2's implicit failure signal.
	store.AddEventSink(s.observeStoreEvent)
	return s, nil
}

// Net returns the physical topology.
func (s *System) Net() *topology.Network { return s.net }

// Env returns the simulation environment (clock, probe meter).
func (s *System) Env() *netsim.Env { return s.env }

// Overlay returns the eCAN overlay.
func (s *System) Overlay() *ecan.Overlay { return s.overlay }

// Store returns the global soft-state store.
func (s *System) Store() *softstate.Store { return s.store }

// Bus returns the publish/subscribe bus.
func (s *System) Bus() *pubsub.Bus { return s.bus }

// Space returns the landmark space.
func (s *System) Space() *landmark.Space { return s.space }

// RNG returns a derived random stream for application use.
func (s *System) RNG(label string) *simrand.Source { return s.rng.Split("app/" + label) }

// Members returns the overlay members.
func (s *System) Members() []*can.Member { return s.overlay.CAN().Members() }

// Route describes one overlay route.
type Route struct {
	// Hops is the overlay hop count.
	Hops int
	// LatencyMs is the accumulated physical latency of the overlay path.
	LatencyMs float64
	// DirectMs is the direct shortest-path latency source to destination.
	DirectMs float64
	// Stretch is LatencyMs / DirectMs (1 for src == dst hosts).
	Stretch float64
	// Path is the member sequence, endpoints included.
	Path []*can.Member
}

// RouteTo routes from src to the member owning dst's zone and reports the
// path quality.
func (s *System) RouteTo(src, dst *can.Member) (Route, error) {
	if src == nil || dst == nil {
		return Route{}, errors.New("core: nil member")
	}
	res, err := s.overlay.Route(src, dst.ZoneCenter())
	if err != nil {
		return Route{}, err
	}
	r := Route{
		Hops:      res.Hops(),
		LatencyMs: res.Latency(s.env),
		DirectMs:  s.env.Latency(src.Host, dst.Host),
		Path:      res.Members,
	}
	if r.DirectMs > 0 {
		r.Stretch = r.LatencyMs / r.DirectMs
	} else {
		r.Stretch = 1
	}
	return r, nil
}

// Lookup returns the member owning the DHT key (a point in the unit
// cube).
func (s *System) Lookup(key can.Point) *can.Member { return s.overlay.CAN().Lookup(key) }

// NearestResult reports a nearest-member query.
type NearestResult struct {
	Member *can.Member
	RTTMs  float64
	Probes int
}

// NearestMember finds the physically closest other overlay member to m by
// consulting the soft-state maps of m's enclosing regions, smallest
// first, then RTT-probing the merged candidates (Table 1 + the hybrid
// refinement).
func (s *System) NearestMember(m *can.Member) (NearestResult, error) {
	if m == nil {
		return NearestResult{}, errors.New("core: nil member")
	}
	vec := s.store.Vector(m)
	if vec == nil {
		return NearestResult{}, errors.New("core: member has not published")
	}
	return s.nearestFromRegions(m.Host, vec, s.enclosingRegions(m), m)
}

// NearestToHost finds the overlay member closest to an arbitrary host
// (which need not be an overlay member): the host measures its landmark
// vector (metered) and consults the top-level region maps.
func (s *System) NearestToHost(host topology.NodeID) (NearestResult, error) {
	vec := landmark.Measure(s.env, host, s.space.Set())
	return s.nearestFromRegions(host, vec, s.topRegions(), nil)
}

// enclosingRegions lists m's digit-aligned enclosing regions, smallest
// (deepest) first, ending with the top-level regions.
func (s *System) enclosingRegions(m *can.Member) []can.Path {
	d := s.overlay.DigitLen()
	var out []can.Path
	for l := (m.Depth() / d) * d; l >= d; l -= d {
		out = append(out, m.Path().Prefix(l))
	}
	return append(out, s.topRegions()...)
}

// topRegions lists the 2^digit top-level regions.
func (s *System) topRegions() []can.Path {
	d := s.overlay.DigitLen()
	fanout := 1 << uint(d)
	out := make([]can.Path, 0, fanout)
	for digit := 0; digit < fanout; digit++ {
		p := can.Path{}
		for b := d - 1; b >= 0; b-- {
			bit := uint64((digit >> uint(b)) & 1)
			p = can.Path{Bits: p.Bits | bit<<(63-p.Len), Len: p.Len + 1}
		}
		out = append(out, p)
	}
	return out
}

// nearestFromRegions merges lookups over the regions, dedupes, ranks by
// landmark distance, and probes the top candidates.
func (s *System) nearestFromRegions(from topology.NodeID, vec landmark.Vector,
	regions []can.Path, exclude *can.Member) (NearestResult, error) {
	var cands []*softstate.Entry
	for _, region := range regions {
		entries, _, err := s.store.Lookup(region, vec)
		if err != nil {
			return NearestResult{}, err
		}
		for _, e := range entries {
			if e.Member == exclude || e.Host == from {
				continue
			}
			// A member appears in several regions' maps; keep its first
			// entry. cands stays under 3x the probe budget plus one
			// lookup, so a linear scan beats a set.
			if slices.ContainsFunc(cands, func(c *softstate.Entry) bool { return c.Member == e.Member }) {
				continue
			}
			cands = append(cands, e)
		}
		if len(cands) >= 3*s.cfg.probeBudget {
			break
		}
	}
	if len(cands) == 0 {
		return NearestResult{}, errors.New("core: soft-state returned no candidates")
	}
	softstate.RankEntries(cands, vec)
	best, rtt, probes := landmark.ProbeBest(cands, s.cfg.probeBudget, func(e *softstate.Entry) (float64, float64, bool) {
		rtt := s.env.ProbeRTT(from, e.Host)
		return rtt, rtt, true
	}, func(e *softstate.Entry) {
		// A timed-out candidate probe is a suspicion signal (§5.2's
		// reactive discovery path).
		s.SuspectMember(e.Member)
	})
	res := NearestResult{RTTMs: rtt, Probes: probes}
	if best >= 0 {
		res.Member = cands[best].Member
	}
	return res, nil
}

// OnCloserCandidate subscribes m to its immediate enclosing region: cb
// fires whenever the soft-state learns of a node whose landmark position
// is closer to m than margin below the current best. Use
// Subscription.SetCurrentBest to calibrate after each re-selection.
func (s *System) OnCloserCandidate(m *can.Member, margin float64,
	cb func(pubsub.Notification)) (*pubsub.Subscription, error) {
	region := m.Path().Prefix(s.overlay.DigitLen())
	return s.bus.Subscribe(m, region,
		pubsub.Condition{Kind: pubsub.CloserCandidate, Margin: margin}, cb)
}

// OnOverload subscribes watcher to load alerts for the watched member:
// cb fires when watched's published load reaches threshold (fraction of
// its capacity).
func (s *System) OnOverload(watcher, watched *can.Member, threshold float64,
	cb func(pubsub.Notification)) (*pubsub.Subscription, error) {
	region := watched.Path().Prefix(s.overlay.DigitLen())
	return s.bus.Subscribe(watcher, region,
		pubsub.Condition{Kind: pubsub.LoadAbove, Threshold: threshold, Member: watched}, cb)
}

// PublishLoad publishes m's current load to all its soft-state entries.
func (s *System) PublishLoad(m *can.Member, load float64) { s.store.UpdateLoad(m, load) }

// Reselect drops m's cached routing entries so the next route re-runs
// proximity-neighbor selection against fresh soft-state.
func (s *System) Reselect(m *can.Member) { s.overlay.InvalidateEntries(m) }

// JoinHost adds a new overlay member on host, following the paper's
// (slightly modified) eCAN join: measure the landmark vector, use the
// soft-state to learn the physically nearest existing member (the
// rendezvous that replaces expanding-ring search), join the CAN at a
// random point — the layout stays uniform; proximity lives in the
// soft-state, not the geometry — and publish the newcomer's entry.
// It returns the new member and its discovered nearest neighbor.
func (s *System) JoinHost(host topology.NodeID) (*can.Member, NearestResult, error) {
	nearest, err := s.NearestToHost(host)
	if err != nil {
		return nil, NearestResult{}, fmt.Errorf("core: join rendezvous: %w", err)
	}
	m, err := s.overlay.CAN().JoinRandom(host, s.rng.Split("join"))
	if err != nil {
		return nil, NearestResult{}, err
	}
	// Membership changed: re-snapshot regions and drop cached entries.
	s.overlay.Refresh()
	// m took half of one neighbor's zone; that neighbor's keys in m's half
	// are now m's.
	s.rehomeKeys(m.Neighbors())
	if err := s.store.PublishMeasured(m); err != nil {
		return nil, NearestResult{}, err
	}
	return m, nearest, nil
}

// DepartMember removes m: its soft-state entries are withdrawn (the
// proactive departure case of §5.2), its subscriptions are canceled (a
// departed member must stop receiving notifications — and watchers of it
// can never fire again), its zone is handed over per the CAN protocol,
// its DHT keys go to their new owners, and routing state is refreshed.
func (s *System) DepartMember(m *can.Member) error {
	if m == nil {
		return errors.New("core: nil member")
	}
	s.store.Remove(m)
	s.bus.RemoveSubscriber(m)
	s.bus.DropWatching(m)
	delete(s.suspects, m)
	// Takeover is Depart's zone handover, reporting who moved.
	hand, err := s.overlay.CAN().Takeover(m)
	if err != nil {
		return err
	}
	s.overlay.Refresh()
	s.rehomeKeys(append(hand.Relocated, m))
	return nil
}

// Stats is a snapshot of system-wide counters, read straight from the
// topology, the overlay, the landmark set, the env's meters and the
// soft-state store.
type Stats struct {
	Hosts        int
	Members      int
	Landmarks    int
	Probes       int64
	Messages     map[string]int64
	TotalEntries int
}

// Stats returns the current counters.
func (s *System) Stats() Stats {
	return Stats{
		Hosts:        s.net.Len(),
		Members:      s.overlay.CAN().Size(),
		Landmarks:    s.space.Set().Len(),
		Probes:       s.env.Probes(),
		Messages:     s.env.MessageTotals(),
		TotalEntries: s.store.TotalEntries(),
	}
}
