// Package core assembles the paper's full system behind one API: a
// topology-aware eCAN overlay whose neighbor selection is driven by
// landmark+RTT proximity information stored as global soft-state on the
// overlay itself, with publish/subscribe maintenance.
//
// It is the integration layer the examples and the wire daemon build on;
// the individual mechanisms live in the focused packages (can, ecan,
// landmark, hilbert, softstate, pubsub, proximity, loadbal).
package core

import (
	"errors"
	"fmt"

	"gsso/internal/can"
	"gsso/internal/ecan"
	"gsso/internal/landmark"
	"gsso/internal/netsim"
	"gsso/internal/obs"
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
	members memberStore

	reg    *obs.Registry
	tracer *obs.Tracer
	tm     *telemetry
	heal   *healState
}

// telemetry holds the system's pre-resolved metric series plus the
// high-water marks used to mirror the env's monotone counters into
// registry counters.
type telemetry struct {
	hosts     *obs.Gauge
	members   *obs.Gauge
	landmarks *obs.Gauge
	probes    *obs.Counter
	messages  *obs.CounterVec
	msgSeries map[string]*obs.Counter

	routeHops     *obs.Histogram
	routeLatency  *obs.Histogram
	nearestProbes *obs.Histogram
	nearestRTT    *obs.Histogram

	lastProbes int64
	lastMsgs   map[string]int64
}

// newTelemetry registers the system's metric families on reg.
func newTelemetry(reg *obs.Registry) *telemetry {
	return &telemetry{
		hosts:     reg.Gauge("core_hosts", "Physical hosts in the topology.").With(),
		members:   reg.Gauge("core_members", "Overlay members.").With(),
		landmarks: reg.Gauge("core_landmarks", "Landmark nodes.").With(),
		probes: reg.Counter("core_probes_total",
			"RTT measurements spent (the paper's probe-budget axis).").With(),
		messages: reg.Counter("core_messages_total",
			"Overlay messages, by category (publish, lookup, notify, ...).", "category"),
		msgSeries: make(map[string]*obs.Counter),
		routeHops: reg.Histogram("core_route_hops",
			"Overlay hop count per routed lookup.",
			[]float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}).With(),
		routeLatency: reg.Histogram("core_route_latency_ms",
			"Accumulated physical latency per routed lookup, milliseconds.",
			obs.DefBuckets).With(),
		nearestProbes: reg.Histogram("core_nearest_probes",
			"RTT probes spent per nearest-member query.",
			[]float64{1, 2, 3, 5, 8, 10, 15, 20, 30}).With(),
		nearestRTT: reg.Histogram("core_nearest_rtt_ms",
			"RTT to the winner of each nearest-member query, milliseconds.",
			obs.DefBuckets).With(),
		lastMsgs: make(map[string]int64),
	}
}

// sync mirrors the env's counters and the topology's sizes into the
// registry (counters advance by the delta since the last sync, so they
// stay monotone).
func (s *System) sync() {
	tm := s.tm
	tm.hosts.Set(float64(s.net.Len()))
	tm.members.Set(float64(s.overlay.CAN().Size()))
	tm.landmarks.Set(float64(s.space.Set().Len()))
	if p := s.env.Probes(); p > tm.lastProbes {
		tm.probes.Add(float64(p - tm.lastProbes))
		tm.lastProbes = p
	}
	for k, v := range s.env.MessageTotals() {
		c := tm.msgSeries[k]
		if c == nil {
			c = tm.messages.With(k)
			tm.msgSeries[k] = c
		}
		if last := tm.lastMsgs[k]; v > last {
			c.Add(float64(v - last))
			tm.lastMsgs[k] = v
		}
	}
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
	// Instrument before the bulk publish so the live-entry gauge counts
	// the bootstrap.
	reg := obs.NewRegistry()
	store.Instrument(reg)
	bus.Instrument(reg)
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
		reg: reg, tracer: obs.NewTracer(), tm: newTelemetry(reg),
	}
	// Bind every bootstrap member into the arena-backed member store; later
	// joiners bind in JoinHost.
	for _, m := range overlay.CAN().Members() {
		s.members.bind(m)
	}
	s.heal = newHealState(reg)
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

// Registry returns the system's telemetry registry. Env counters are
// mirrored in on Stats(); call Stats before snapshotting if you need
// them fresh.
func (s *System) Registry() *obs.Registry { return s.reg }

// Tracer returns the system's route tracer.
func (s *System) Tracer() *obs.Tracer { return s.tracer }

// SetTraceSink attaches fn as the trace consumer for RouteTo and
// nearest-member queries (nil detaches it). While detached, the traced
// paths pay a single atomic load.
func (s *System) SetTraceSink(fn func(obs.Trace)) { s.tracer.SetSink(fn) }

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
	s.tm.routeHops.Observe(float64(r.Hops))
	s.tm.routeLatency.Observe(r.LatencyMs)
	if tr := s.tracer.Begin("route"); tr != nil {
		prev := r.Path[0]
		tr.Hop(fmt.Sprintf("host:%d", prev.Host), prev.Path().String(), 0)
		for _, m := range r.Path[1:] {
			tr.Hop(fmt.Sprintf("host:%d", m.Host), m.Path().String(),
				s.env.Latency(prev.Host, m.Host))
			prev = m
		}
		s.tracer.Emit(tr)
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
	s.members.beginVisit()
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
			if s.members.seen(e.Member) {
				continue
			}
			cands = append(cands, e)
		}
		if len(cands) >= 3*s.cfg.probeBudget {
			break
		}
	}
	tr := s.tracer.Begin("nearest")
	if len(cands) == 0 {
		err := errors.New("core: soft-state returned no candidates")
		tr.Fail(err)
		s.tracer.Emit(tr)
		return NearestResult{}, err
	}
	softstate.RankEntries(cands, vec)
	best, rtt, probes := landmark.ProbeBest(cands, s.cfg.probeBudget, func(e *softstate.Entry) (float64, float64, bool) {
		rtt := s.env.ProbeRTT(from, e.Host)
		if tr != nil {
			tr.Hop(fmt.Sprintf("host:%d", e.Host), e.Member.Path().String(), rtt)
		}
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
	s.tracer.Emit(tr)
	s.tm.nearestProbes.Observe(float64(res.Probes))
	if res.Member != nil {
		s.tm.nearestRTT.Observe(res.RTTMs)
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

// RefreshSoftState runs one batched refresh tick over the whole overlay:
// every published member re-stamps its soft-state entries, with each
// member's per-region refreshes coalesced into a single refresh-batch
// message (mirroring the wire layer's publish batching). Returns how
// many entries were refreshed. Call it each virtual refresh interval to
// keep entries ahead of the TTL sweep without paying one message per
// region map.
func (s *System) RefreshSoftState() int { return s.store.RefreshAll() }

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
	s.members.bind(m)
	// Membership changed: re-snapshot regions and drop cached entries.
	s.overlay.Refresh()
	if err := s.store.PublishMeasured(m); err != nil {
		return nil, NearestResult{}, err
	}
	return m, nearest, nil
}

// DepartMember removes m: its soft-state entries are withdrawn (the
// proactive departure case of §5.2), its subscriptions are canceled (a
// departed member must stop receiving notifications — and watchers of it
// can never fire again), its zone is handed over per the CAN protocol,
// and routing state is refreshed.
func (s *System) DepartMember(m *can.Member) error {
	if m == nil {
		return errors.New("core: nil member")
	}
	s.store.Remove(m)
	s.bus.RemoveSubscriber(m)
	s.bus.DropWatching(m)
	s.forgetSuspect(m)
	if err := s.overlay.CAN().Depart(m); err != nil {
		return err
	}
	s.members.unbind(m)
	s.overlay.Refresh()
	return nil
}

// Stats is a snapshot of system-wide counters. It is a view assembled
// from the telemetry registry (see Registry for the full data,
// histograms included).
type Stats struct {
	Hosts        int
	Members      int
	Landmarks    int
	Probes       int64
	Messages     map[string]int64
	TotalEntries int
}

// Stats syncs the registry and returns the counter view.
func (s *System) Stats() Stats {
	s.sync()
	snap := s.reg.Snapshot()
	st := Stats{Messages: make(map[string]int64)}
	if v, ok := snap.Value("core_hosts"); ok {
		st.Hosts = int(v)
	}
	if v, ok := snap.Value("core_members"); ok {
		st.Members = int(v)
	}
	if v, ok := snap.Value("core_landmarks"); ok {
		st.Landmarks = int(v)
	}
	if v, ok := snap.Value("core_probes_total"); ok {
		st.Probes = int64(v)
	}
	if v, ok := snap.Value("softstate_entries_live"); ok {
		st.TotalEntries = int(v)
	}
	if f, ok := snap.Family("core_messages_total"); ok {
		for _, se := range f.Series {
			st.Messages[se.LabelValues[0]] = int64(se.Value)
		}
	}
	return st
}
