// Package softstate implements the paper's central mechanism: global
// system state stored on the overlay itself as soft-state, with controlled
// placement so that information about physically close nodes lands on
// logically close overlay nodes.
//
// One proximity map exists per high-order region (eCAN high-order zone /
// Pastry prefix). A node's entry — its landmark vector, scalar landmark
// number, capacity and load — is published into the map of every enclosing
// region, placed *within* the region at a position derived from the
// landmark number through the space-filling curve (appendix hash
// p' = h(p, dp, dz, Z)). Entries carry a TTL and vanish unless refreshed.
//
// A node looking for a physically close member of region Z indexes Z's map
// with its own landmark number (Table 1's procedure): route to the owner,
// widen along the curve if the local shard is thin, sort what was found by
// full-vector distance, return the top X. The caller then RTT-probes those
// X candidates — the hybrid landmark+RTT scheme.
//
// # Concurrency
//
// The store is sharded by landmark-number range: entries whose numbers
// fall in different shards never share a lock, so concurrent publishes,
// refreshes, sweeps, and repairs touching different parts of the curve
// proceed in parallel. All of one member's entries live in the shard of
// its current number (republishing to a new number relocates them), so
// member-keyed operations (Remove, Purge, UpdateLoad, RefreshAll) lock
// exactly one shard. Entries are copy-on-write — immutable once
// inserted; refresh and load updates replace the pointer — so snapshots
// handed out by Lookup and events stay race-free without locks. Event
// sinks run after shard locks are released and may safely re-enter the
// store. Configuration (SetEventSink, AddEventSink, SetPublishFilter,
// Instrument, SetSpans) must happen before concurrent use.
package softstate

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"gsso/internal/can"
	"gsso/internal/ecan"
	"gsso/internal/landmark"
	"gsso/internal/netsim"
	"gsso/internal/obs"
	"gsso/internal/obs/span"
	"gsso/internal/topology"
)

// Entry is one node's record in a region map. Entries are immutable
// after insertion: refreshes and load changes replace the map's pointer
// with a fresh copy, so a held *Entry is a stable snapshot.
type Entry struct {
	// Member is the overlay member the entry describes.
	Member *can.Member
	// Host is the member's physical host.
	Host topology.NodeID
	// Vector is the member's full landmark vector.
	Vector landmark.Vector
	// Number is the member's scalar landmark number.
	Number uint64
	// Capacity is the member's forwarding capacity (arbitrary units);
	// Load its current load. Used by the §6 heterogeneity extension.
	Capacity float64
	Load     float64
	// Expires is the soft-state deadline; entries past it are dead.
	Expires netsim.Time
}

// RankEntries sorts entries in place by vector distance to vec, nearest
// first, ties by host: the hybrid search's pre-selection order.
func RankEntries(entries []*Entry, vec landmark.Vector) {
	landmark.Rank(entries, vec,
		func(e *Entry) landmark.Vector { return e.Vector },
		func(e *Entry) topology.NodeID { return e.Host }, nil)
}

// EventKind classifies map-change events for the pub/sub layer.
type EventKind uint8

// Map-change events.
const (
	EventPublished EventKind = iota
	EventRefreshed
	EventRemoved
	EventExpired
	EventLoadChanged
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventPublished:
		return "published"
	case EventRefreshed:
		return "refreshed"
	case EventRemoved:
		return "removed"
	case EventExpired:
		return "expired"
	case EventLoadChanged:
		return "load-changed"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is emitted on every map mutation.
type Event struct {
	Kind   EventKind
	Region can.Path
	Entry  *Entry
}

// defaultShards is the shard count used when Config.Shards is zero.
const defaultShards = 8

// maxShardCount bounds Config.Shards.
const maxShardCount = 1 << 10

// Config tunes the store.
type Config struct {
	// TTL is the soft-state lifetime of a published entry.
	TTL netsim.Time
	// CondenseDepth condenses each region's map into an aligned sub-block
	// of 2^-CondenseDepth of the region's volume (0 = the map spreads over
	// the whole region). This is the paper's condense/reduction rate:
	// rate = 2^CondenseDepth.
	CondenseDepth int
	// MaxReturn is X, the maximum number of candidates a lookup returns.
	MaxReturn int
	// ExpandBudget bounds how many additional owner shards a lookup may
	// visit along the curve when the first shard is thin (the paper's
	// "define a TTL to search outside y's map content range").
	ExpandBudget int
	// Shards is the number of landmark-number ranges the store is split
	// into for concurrency — a power of two up to 1024, clamped to the
	// curve's resolution. Zero selects the default (8). One shard
	// degenerates to a single-lock store (the old behavior, kept as the
	// benchmark baseline).
	Shards int
}

// DefaultConfig returns the defaults used across experiments.
func DefaultConfig() Config {
	return Config{TTL: 60_000, CondenseDepth: 0, MaxReturn: 10, ExpandBudget: 8, Shards: defaultShards}
}

func (c Config) validate() error {
	switch {
	case c.TTL <= 0:
		return fmt.Errorf("softstate: TTL = %v, need > 0", c.TTL)
	case c.CondenseDepth < 0 || c.CondenseDepth > 32:
		return fmt.Errorf("softstate: CondenseDepth = %d, need in [0,32]", c.CondenseDepth)
	case c.MaxReturn < 1:
		return fmt.Errorf("softstate: MaxReturn = %d, need >= 1", c.MaxReturn)
	case c.ExpandBudget < 0:
		return fmt.Errorf("softstate: ExpandBudget = %d, need >= 0", c.ExpandBudget)
	case c.Shards < 0 || c.Shards > maxShardCount:
		return fmt.Errorf("softstate: Shards = %d, need in [0,%d]", c.Shards, maxShardCount)
	case c.Shards&(c.Shards-1) != 0:
		return fmt.Errorf("softstate: Shards = %d, need a power of two", c.Shards)
	}
	return nil
}

// regionMap is one shard's slice of one region's proximity map: entries
// keyed by member, plus a number-sorted view rebuilt lazily for
// curve-order expansion. The rebuild allocates a fresh slice so a view
// handed out under the shard lock stays valid after the lock drops.
type regionMap struct {
	entries map[*can.Member]*Entry
	sorted  []*Entry // by Number, rebuilt (fresh) when dirty
	dirty   bool
}

func (rm *regionMap) sortedEntries() []*Entry {
	if rm.dirty {
		sorted := make([]*Entry, 0, len(rm.entries))
		for _, e := range rm.entries {
			sorted = append(sorted, e)
		}
		sort.Slice(sorted, func(i, j int) bool {
			if sorted[i].Number != sorted[j].Number {
				return sorted[i].Number < sorted[j].Number
			}
			return sorted[i].Host < sorted[j].Host // deterministic tie-break
		})
		rm.sorted = sorted
		rm.dirty = false
	}
	return rm.sorted
}

// storeShard is one landmark-number range of the store: its own region
// maps, its own lock, and a lock-free live-entry counter.
type storeShard struct {
	mu   sync.Mutex
	maps map[can.Path]*regionMap
	live atomic.Int64
}

// memberState is a member's published position, immutable once stored
// (publishes replace the pointer), so readers need no lock.
type memberState struct {
	vector landmark.Vector
	number uint64
}

// Store holds every region map of one overlay plus the metadata needed
// to place and retrieve entries, sharded by landmark-number range (see
// the package comment for the locking discipline).
type Store struct {
	overlay *ecan.Overlay
	space   *landmark.Space
	env     *netsim.Env
	cfg     Config

	// numShift maps a landmark number to its shard: index = number >>
	// numShift. Shard ranges are contiguous, so the per-shard sorted
	// slices of one region concatenate into global number order.
	numShift uint
	shards   []*storeShard

	members sync.Map // *can.Member -> *memberState; lock-free reads

	sinks   []func(Event)
	filter  func(region can.Path, number uint64) bool
	metrics *storeMetrics
	spans   *span.Collector
}

// SetSpans attaches a span collector: Publish and Lookup record one root
// span each (op "softstate.publish" / "softstate.lookup", the member's
// host or the queried region as the peer label, region count or expand
// hops as the attempt count). This is the simulator analogue of the wire
// layer's distributed tracing — the same ring buffer and sampler observe
// the in-process soft-state path, so experiment harnesses can expose
// /traces like a live node. Nil detaches (the default; zero overhead
// beyond a nil check).
func (s *Store) SetSpans(c *span.Collector) { s.spans = c }

// storeMetrics mirrors map churn into a telemetry registry: a live-entry
// gauge plus one counter per event kind (published, refreshed, removed,
// expired, load-changed) and a dedicated sweep counter. Nil when the
// store is uninstrumented.
type storeMetrics struct {
	live   *obs.Gauge
	events map[EventKind]*obs.Counter
	swept  *obs.Counter
}

// Instrument mirrors the store's churn into reg: the gauge
// softstate_entries_live and the counter family
// softstate_events_total{kind}. Call once, before publishing.
func (s *Store) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	events := reg.Counter("softstate_events_total",
		"Soft-state map mutations, by event kind.", "kind")
	m := &storeMetrics{
		live: reg.Gauge("softstate_entries_live",
			"Entries currently held across all region maps.").With(),
		events: make(map[EventKind]*obs.Counter),
		swept: reg.Counter("softstate_sweep_expired_total",
			"Entries dropped by SweepExpired (periodic-polling maintenance).").With(),
	}
	for _, k := range []EventKind{EventPublished, EventRefreshed, EventRemoved, EventExpired, EventLoadChanged} {
		m.events[k] = events.With(k.String())
	}
	m.live.Set(float64(s.TotalEntries()))
	s.metrics = m
}

// NewStore builds an empty store over ov.
func NewStore(ov *ecan.Overlay, space *landmark.Space, env *netsim.Env, cfg Config) (*Store, error) {
	if ov == nil || space == nil || env == nil {
		return nil, errors.New("softstate: nil overlay, space, or env")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Shards == 0 {
		cfg.Shards = defaultShards
	}
	curveWidth := space.Curve().Dims() * space.Curve().Bits()
	shardBits := bits.TrailingZeros(uint(cfg.Shards))
	if shardBits > curveWidth {
		// More shards than the curve has distinct numbers buys nothing.
		shardBits = curveWidth
		cfg.Shards = 1 << shardBits
	}
	s := &Store{
		overlay:  ov,
		space:    space,
		env:      env,
		cfg:      cfg,
		numShift: uint(curveWidth - shardBits),
		shards:   make([]*storeShard, cfg.Shards),
	}
	for i := range s.shards {
		s.shards[i] = &storeShard{maps: make(map[can.Path]*regionMap)}
	}
	return s, nil
}

// shardOf maps a landmark number to its shard index.
func (s *Store) shardOf(number uint64) int {
	i := int(number >> s.numShift)
	if i >= len(s.shards) {
		i = len(s.shards) - 1
	}
	return i
}

// Shards reports the store's effective shard count.
func (s *Store) Shards() int { return len(s.shards) }

// Config returns the store's configuration (Shards normalized to the
// effective count).
func (s *Store) Config() Config { return s.cfg }

// Space returns the landmark space in use.
func (s *Store) Space() *landmark.Space { return s.space }

// Env returns the simulation environment the store meters against.
func (s *Store) Env() *netsim.Env { return s.env }

// Overlay returns the eCAN the store serves.
func (s *Store) Overlay() *ecan.Overlay { return s.overlay }

// SetEventSink installs the map-change event hook (used by package
// pubsub), replacing any sinks installed before. A nil sink disables
// events.
func (s *Store) SetEventSink(fn func(Event)) {
	if fn == nil {
		s.sinks = nil
		return
	}
	s.sinks = []func(Event){fn}
}

// AddEventSink appends an additional map-change observer alongside any
// already installed — the failure detector in package core listens this
// way without displacing the pub/sub bus.
func (s *Store) AddEventSink(fn func(Event)) {
	if fn != nil {
		s.sinks = append(s.sinks, fn)
	}
}

// SetPublishFilter installs a gate consulted before every per-region map
// insertion: Publish skips (and meters as "publish-dropped") regions for
// which fn returns false. Experiments use it to model unreachable map
// owners — a write to a spot whose owner crashed cannot land until the
// zone is taken over. A nil fn removes the gate. The filter runs outside
// the shard locks.
func (s *Store) SetPublishFilter(fn func(region can.Path, number uint64) bool) {
	s.filter = fn
}

// emitAll delivers events collected during a locked mutation. It runs
// with no shard lock held, so sinks may re-enter the store freely.
func (s *Store) emitAll(evs []Event) {
	for i := range evs {
		ev := evs[i]
		if m := s.metrics; m != nil {
			m.events[ev.Kind].Inc()
			switch ev.Kind {
			case EventPublished:
				m.live.Add(1)
			case EventRemoved, EventExpired:
				m.live.Add(-1)
			}
		}
		for _, sink := range s.sinks {
			sink(ev)
		}
	}
}

// loadMember returns m's published state, if any.
func (s *Store) loadMember(m *can.Member) (*memberState, bool) {
	v, ok := s.members.Load(m)
	if !ok {
		return nil, false
	}
	return v.(*memberState), true
}

// Vector returns m's published landmark vector (nil if unpublished).
func (s *Store) Vector(m *can.Member) landmark.Vector {
	if st, ok := s.loadMember(m); ok {
		return st.vector
	}
	return nil
}

// Number returns m's landmark number and whether m has published.
func (s *Store) Number(m *can.Member) (uint64, bool) {
	if st, ok := s.loadMember(m); ok {
		return st.number, true
	}
	return 0, false
}

// PublishOption customizes a publication.
type PublishOption func(*Entry)

// WithCapacity sets the entry's forwarding capacity.
func WithCapacity(capacity float64) PublishOption {
	return func(e *Entry) { e.Capacity = capacity }
}

// WithLoad sets the entry's current load.
func WithLoad(load float64) PublishOption {
	return func(e *Entry) { e.Load = load }
}

// regionsOf returns the high-order regions enclosing m whose maps must
// carry m's entry: prefixes of m's path at every digit boundary (one map
// per high-order zone, at most log N of them).
func (s *Store) regionsOf(m *can.Member) []can.Path {
	d := s.overlay.DigitLen()
	p := m.Path()
	var out []can.Path
	for l := d; l <= p.Len; l += d {
		out = append(out, p.Prefix(l))
	}
	return out
}

// Publish inserts or refreshes m's entry in the map of every enclosing
// high-order region, stamping soft-state expiry now+TTL. The member's
// landmark vector is measured through env if not supplied before (use
// PublishMeasured for that path); vec is copied.
func (s *Store) Publish(m *can.Member, vec landmark.Vector, opts ...PublishOption) error {
	if m == nil {
		return errors.New("softstate: publish nil member")
	}
	sp := s.spans.StartRoot("softstate.publish")
	sp.SetPeer(fmt.Sprintf("host-%d", m.Host))
	stored, err := s.publish(m, vec, opts...)
	sp.Finish(span.Outcome(err), stored, err)
	return err
}

func (s *Store) publish(m *can.Member, vec landmark.Vector, opts ...PublishOption) (int, error) {
	num, err := s.space.Number(vec)
	if err != nil {
		return 0, err
	}
	vcopy := append(landmark.Vector(nil), vec...)
	oldState, hadOld := s.loadMember(m)
	s.members.Store(m, &memberState{vector: vcopy, number: num})
	newShard := s.shardOf(num)

	// Relocation: a republish whose number crossed a shard boundary must
	// drag the member's entries to the new shard, or member-keyed
	// operations (which look only in the number's shard) would miss
	// them. The old entries move silently — the refresh events emitted
	// on re-insertion below are the externally visible state change.
	var prevByRegion map[can.Path]*Entry
	if hadOld && s.shardOf(oldState.number) != newShard {
		old := s.shards[s.shardOf(oldState.number)]
		old.mu.Lock()
		for region, rm := range old.maps {
			if e, ok := rm.entries[m]; ok {
				if prevByRegion == nil {
					prevByRegion = make(map[can.Path]*Entry)
				}
				prevByRegion[region] = e
				delete(rm.entries, m)
				rm.dirty = true
			}
		}
		old.live.Add(int64(-len(prevByRegion)))
		old.mu.Unlock()
	}

	// The publish filter runs before the shard lock: it is caller code
	// and must not observe the store mid-mutation.
	regions := s.regionsOf(m)
	kept := regions[:0]
	dropped := 0
	for _, region := range regions {
		if s.filter != nil && !s.filter(region, num) {
			dropped++
			continue
		}
		kept = append(kept, region)
	}

	now := s.env.Clock().Now()
	events := make([]Event, 0, len(kept))
	added := 0
	sh := s.shards[newShard]
	sh.mu.Lock()
	for _, region := range kept {
		rm := sh.maps[region]
		if rm == nil {
			rm = &regionMap{entries: make(map[*can.Member]*Entry)}
			sh.maps[region] = rm
		}
		prev, inShard := rm.entries[m]
		if !inShard {
			added++
			if prev = prevByRegion[region]; prev == nil {
				prev = nil
			}
		}
		existed := prev != nil
		e := &Entry{
			Member:  m,
			Host:    m.Host,
			Vector:  vcopy,
			Number:  num,
			Expires: now + s.cfg.TTL,
		}
		if existed {
			e.Capacity, e.Load = prev.Capacity, prev.Load
		}
		for _, opt := range opts {
			opt(e)
		}
		rm.entries[m] = e
		rm.dirty = true
		kind := EventPublished
		if existed {
			kind = EventRefreshed
		}
		events = append(events, Event{Kind: kind, Region: region, Entry: e})
	}
	sh.live.Add(int64(added))
	sh.mu.Unlock()

	s.emitAll(events)
	if dropped > 0 {
		s.env.CountMessages("publish-dropped", dropped)
	}
	s.env.CountMessages("publish", len(kept))
	return len(kept), nil
}

// PublishMeasured measures m's landmark vector (metered probes, one per
// landmark) and publishes it.
func (s *Store) PublishMeasured(m *can.Member, opts ...PublishOption) error {
	vec := landmark.Measure(s.env, m.Host, s.space.Set())
	return s.Publish(m, vec, opts...)
}

// UpdateLoad changes m's load in every map it appears in without
// refreshing expiry, emitting EventLoadChanged (the §6 statistics
// publication path). Entries are replaced copy-on-write: snapshots held
// from earlier lookups keep the load they were taken with.
func (s *Store) UpdateLoad(m *can.Member, load float64) {
	st, ok := s.loadMember(m)
	if !ok {
		return
	}
	sh := s.shards[s.shardOf(st.number)]
	var events []Event
	sh.mu.Lock()
	for region, rm := range sh.maps {
		if e, ok := rm.entries[m]; ok {
			ne := *e
			ne.Load = load
			rm.entries[m] = &ne
			rm.dirty = true
			events = append(events, Event{Kind: EventLoadChanged, Region: region, Entry: &ne})
		}
	}
	sh.mu.Unlock()
	s.emitAll(events)
	if len(events) > 0 {
		s.env.CountMessages("publish", len(events))
	}
}

// deleteAll removes every entry describing m from every map, emitting
// EventRemoved per region and metering the deletions under category.
// All of m's entries live in the shard of its current number, so one
// shard lock covers the whole deletion.
func (s *Store) deleteAll(m *can.Member, category string) int {
	st, ok := s.loadMember(m)
	s.members.Delete(m)
	if !ok {
		return 0
	}
	sh := s.shards[s.shardOf(st.number)]
	var events []Event
	sh.mu.Lock()
	for region, rm := range sh.maps {
		if e, ok := rm.entries[m]; ok {
			delete(rm.entries, m)
			rm.dirty = true
			events = append(events, Event{Kind: EventRemoved, Region: region, Entry: e})
		}
	}
	sh.live.Add(int64(-len(events)))
	sh.mu.Unlock()
	s.emitAll(events)
	if len(events) > 0 {
		s.env.CountMessages(category, len(events))
	}
	return len(events)
}

// Remove deletes m's entries from all maps (the proactive departure
// case).
func (s *Store) Remove(m *can.Member) {
	s.deleteAll(m, "publish")
}

// ReportUnreachable implements §5.2's "most reactive case": "departed
// nodes are deleted from the global state only when they are selected as
// routing neighbor replacements and later found un-reachable." The
// selector calls this when a probe to a map candidate times out; all of
// the dead member's entries are purged.
func (s *Store) ReportUnreachable(m *can.Member) {
	s.deleteAll(m, "reactive-delete")
}

// Purge drops a crashed member's entries from every map during repair
// (the ungraceful counterpart of Remove) and returns how many orphaned
// entries were purged. Condensed-map *responsibility* needs no explicit
// reassignment: OwnerOf resolves placement paths through the live split
// tree, so once the crashed member's zone is taken over, its map spots
// are answered by the successor automatically.
func (s *Store) Purge(m *can.Member) int {
	return s.deleteAll(m, "repair")
}

// SweepExpired deletes all entries past their TTL (the periodic-polling
// maintenance mode) and returns how many were dropped. Instrumented
// stores also count the drops in softstate_sweep_expired_total. Shards
// are swept one at a time, so concurrent publishes to other shards never
// wait on the sweep.
func (s *Store) SweepExpired() int {
	now := s.env.Clock().Now()
	dropped := 0
	for _, sh := range s.shards {
		var events []Event
		sh.mu.Lock()
		for region, rm := range sh.maps {
			for m, e := range rm.entries {
				if e.Expires < now {
					delete(rm.entries, m)
					rm.dirty = true
					events = append(events, Event{Kind: EventExpired, Region: region, Entry: e})
				}
			}
		}
		sh.live.Add(int64(-len(events)))
		sh.mu.Unlock()
		s.emitAll(events)
		dropped += len(events)
	}
	if dropped > 0 && s.metrics != nil {
		s.metrics.swept.Add(float64(dropped))
	}
	return dropped
}

// placementPath maps (region, landmark number) to the path of the spot
// inside the region where the entry lives: the region, condensed by
// CondenseDepth zero-bits, extended by the number's bits most significant
// first (the space-filling-curve hash into the region).
func (s *Store) placementPath(region can.Path, number uint64) can.Path {
	p := region
	for i := 0; i < s.cfg.CondenseDepth && p.Len < can.MaxDepth; i++ {
		p = can.Path{Bits: p.Bits, Len: p.Len + 1} // zero bit
	}
	width := s.space.Curve().Dims() * s.space.Curve().Bits()
	for b := width - 1; b >= 0 && p.Len < can.MaxDepth; b-- {
		bit := (number >> uint(b)) & 1
		p = can.Path{Bits: p.Bits | bit<<(63-p.Len), Len: p.Len + 1}
	}
	return p
}

// OwnerOf returns the member whose zone hosts the map spot for (region,
// number).
func (s *Store) OwnerOf(region can.Path, number uint64) *can.Member {
	return s.overlay.CAN().LeafAlong(s.placementPath(region, number))
}

// OwnersOf returns up to k distinct members responsible for the map spot
// of (region, number): the primary owner followed by its successors in
// zone-path order within the region — the in-overlay analogue of the
// wire layer's k ring owners, used for replicated map placement.
func (s *Store) OwnersOf(region can.Path, number uint64, k int) []*can.Member {
	primary := s.OwnerOf(region, number)
	if primary == nil || k < 1 {
		return nil
	}
	ms := s.overlay.CAN().MembersUnder(region)
	idx := -1
	for i, m := range ms {
		if m == primary {
			idx = i
			break
		}
	}
	if idx < 0 {
		return []*can.Member{primary}
	}
	if k > len(ms) {
		k = len(ms)
	}
	out := make([]*can.Member, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, ms[(idx+i)%len(ms)])
	}
	return out
}

// LoseShards models crash-induced shard loss: every entry whose entire
// k-owner chain satisfies down is dropped from its map — the data died
// with its holders, so no removal events fire (nobody is left to
// announce them), but the live-entry gauge is adjusted. Returns the
// number of entries lost. Entries with at least one live owner survive:
// that is what the replicated placement buys.
func (s *Store) LoseShards(down func(*can.Member) bool, k int) int {
	lost := 0
	for _, sh := range s.shards {
		shardLost := 0
		sh.mu.Lock()
		for region, rm := range sh.maps {
			for m, e := range rm.entries {
				allDown := true
				for _, o := range s.OwnersOf(region, e.Number, k) {
					if !down(o) {
						allDown = false
						break
					}
				}
				if allDown {
					delete(rm.entries, m)
					rm.dirty = true
					shardLost++
				}
			}
		}
		sh.live.Add(int64(-shardLost))
		sh.mu.Unlock()
		lost += shardLost
	}
	if lost > 0 && s.metrics != nil {
		s.metrics.live.Add(float64(-lost))
	}
	return lost
}

// LookupCost reports what a lookup spent.
type LookupCost struct {
	// RouteMessages is the overlay messages to reach the map owner (and
	// return): modeled as one request plus one reply.
	RouteMessages int
	// ExpandHops is the number of additional owner shards visited along
	// the curve because the first shard is thin.
	ExpandHops int
}

// catPos addresses one entry in the concatenation of per-shard sorted
// slices: shard ranges are contiguous number ranges, so the
// concatenation is globally number-sorted.
type catPos struct{ sh, i int }

// fwdPos normalizes p to the first populated position at or after it
// (sh == len(slices) marks the back edge).
func fwdPos(slices [][]*Entry, p catPos) catPos {
	for p.sh < len(slices) && p.i >= len(slices[p.sh]) {
		p.sh++
		p.i = 0
	}
	return p
}

// nextPos advances one entry in concatenated order.
func nextPos(slices [][]*Entry, p catPos) catPos {
	p.i++
	return fwdPos(slices, p)
}

// prevPos steps one entry back (sh < 0 marks the front edge).
func prevPos(slices [][]*Entry, p catPos) catPos {
	p.i--
	for p.i < 0 {
		p.sh--
		if p.sh < 0 {
			return catPos{sh: -1}
		}
		p.i = len(slices[p.sh]) - 1
	}
	return p
}

// Lookup implements Table 1: find up to MaxReturn entries of region's map
// closest to vec, by indexing the map with vec's landmark number, widening
// along the curve within ExpandBudget, then sorting by full-vector
// distance. Expired entries are skipped (and left for SweepExpired).
// The queried region must be one of the high-order regions (digit-aligned
// prefixes); for deeper paths the covering region's map is consulted.
func (s *Store) Lookup(region can.Path, vec landmark.Vector) ([]*Entry, LookupCost, error) {
	sp := s.spans.StartRoot("softstate.lookup")
	sp.SetPeer(region.String())
	entries, cost, err := s.lookup(region, vec)
	sp.Finish(span.Outcome(err), cost.ExpandHops, err)
	return entries, cost, err
}

func (s *Store) lookup(region can.Path, vec landmark.Vector) ([]*Entry, LookupCost, error) {
	num, err := s.space.Number(vec)
	if err != nil {
		return nil, LookupCost{}, err
	}
	cost := LookupCost{RouteMessages: 2} // request + reply
	s.env.CountMessages("lookup", 2)

	// Snapshot each shard's sorted view of the region under its own
	// lock; entries are copy-on-write, so the walk below needs no lock.
	slices := make([][]*Entry, len(s.shards))
	total := 0
	for i, sh := range s.shards {
		sh.mu.Lock()
		if rm := sh.maps[region]; rm != nil {
			slices[i] = rm.sortedEntries()
		}
		sh.mu.Unlock()
		total += len(slices[i])
	}
	if total == 0 {
		return nil, cost, nil
	}
	now := s.env.Clock().Now()

	// Position of our number in the concatenated sorted order: hi is the
	// first entry with Number >= num, lo the entry just before it.
	start := s.shardOf(num)
	sl := slices[start]
	raw := catPos{sh: start, i: sort.Search(len(sl), func(k int) bool { return sl[k].Number >= num })}
	hi := fwdPos(slices, raw)
	lo := prevPos(slices, raw)

	// The shard we landed on plus curve-order expansion: walk outward
	// gathering live entries; each time the owner of the next entry
	// differs from the owners already visited, it costs one expand hop.
	owners := map[*can.Member]struct{}{}
	startOwner := s.OwnerOf(region, num)
	if startOwner != nil {
		owners[startOwner] = struct{}{}
	}
	var gathered []*Entry
	visit := func(e *Entry) bool {
		owner := s.OwnerOf(region, e.Number)
		if _, seen := owners[owner]; !seen {
			if cost.ExpandHops >= s.cfg.ExpandBudget {
				return false
			}
			owners[owner] = struct{}{}
			cost.ExpandHops++
			s.env.CountMessages("lookup-expand", 1)
		}
		if e.Expires >= now {
			gathered = append(gathered, e)
		}
		return true
	}
	// Gather up to 3*MaxReturn entries around the index position so the
	// full-vector sort has slack to reorder curve neighbors.
	want := 3 * s.cfg.MaxReturn
	loOK := lo.sh >= 0
	hiOK := hi.sh < len(slices)
	for len(gathered) < want && (loOK || hiOK) {
		// Prefer the side whose number is closer to ours.
		pickLo := false
		switch {
		case !loOK:
		case !hiOK:
			pickLo = true
		default:
			pickLo = num-slices[lo.sh][lo.i].Number <= slices[hi.sh][hi.i].Number-num
		}
		if pickLo {
			if !visit(slices[lo.sh][lo.i]) {
				loOK = false
				continue
			}
			lo = prevPos(slices, lo)
			loOK = lo.sh >= 0
		} else {
			if !visit(slices[hi.sh][hi.i]) {
				hiOK = false
				continue
			}
			hi = nextPos(slices, hi)
			hiOK = hi.sh < len(slices)
		}
	}

	RankEntries(gathered, vec)
	if len(gathered) > s.cfg.MaxReturn {
		gathered = gathered[:s.cfg.MaxReturn]
	}
	return gathered, cost, nil
}

// EntriesPerOwner distributes every live map entry to its hosting owner
// and returns the per-owner counts (Figure 16's "map entries / node").
func (s *Store) EntriesPerOwner() map[*can.Member]int {
	counts := make(map[*can.Member]int)
	for _, sh := range s.shards {
		sh.mu.Lock()
		for region, rm := range sh.maps {
			for _, e := range rm.entries {
				if owner := s.OwnerOf(region, e.Number); owner != nil {
					counts[owner]++
				}
			}
		}
		sh.mu.Unlock()
	}
	return counts
}

// TotalEntries returns the number of entries across all maps (including
// any not yet swept). Lock-free: it sums the per-shard atomic counters.
func (s *Store) TotalEntries() int {
	var total int64
	for _, sh := range s.shards {
		total += sh.live.Load()
	}
	return int(total)
}

// RegionEntries returns the live entries of one region's map (fresh
// slice, unsorted).
func (s *Store) RegionEntries(region can.Path) []*Entry {
	now := s.env.Clock().Now()
	var out []*Entry
	for _, sh := range s.shards {
		sh.mu.Lock()
		if rm := sh.maps[region]; rm != nil {
			for _, e := range rm.entries {
				if e.Expires >= now {
					out = append(out, e)
				}
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// RefreshAll re-stamps expiry now+TTL on every map entry each published
// member still holds — the simulator analogue of the wire layer's
// batched refresh: a member's refreshes to all of its region maps are
// coalesced into one metered "refresh-batch" message instead of one
// "publish" per map (what per-entry Publish would cost). EventRefreshed
// still fires per entry so subscribers and telemetry see every touch.
// Members behind a publish filter keep their filtered-out regions
// unrefreshed, exactly as Publish would. Each member's refresh takes
// only its number's shard lock. Returns how many entries were refreshed.
func (s *Store) RefreshAll() int {
	now := s.env.Clock().Now()
	refreshed := 0
	batches := 0
	var events []Event
	for _, m := range s.overlay.CAN().Members() {
		st, ok := s.loadMember(m)
		if !ok {
			continue
		}
		num := st.number
		regions := s.regionsOf(m)
		kept := regions[:0]
		dropped := 0
		for _, region := range regions {
			if s.filter != nil && !s.filter(region, num) {
				dropped++
				continue
			}
			kept = append(kept, region)
		}
		events = events[:0]
		sh := s.shards[s.shardOf(num)]
		sh.mu.Lock()
		for _, region := range kept {
			rm := sh.maps[region]
			if rm == nil {
				continue
			}
			e, ok := rm.entries[m]
			if !ok {
				continue
			}
			ne := *e
			ne.Expires = now + s.cfg.TTL
			rm.entries[m] = &ne
			rm.dirty = true
			events = append(events, Event{Kind: EventRefreshed, Region: region, Entry: &ne})
		}
		sh.mu.Unlock()
		s.emitAll(events)
		if dropped > 0 {
			s.env.CountMessages("publish-dropped", dropped)
		}
		if len(events) > 0 {
			batches++
			refreshed += len(events)
		}
	}
	if batches > 0 {
		s.env.CountMessages("refresh-batch", batches)
	}
	return refreshed
}

// PublishAll measures and publishes every overlay member (bulk bootstrap
// used by experiments), optionally assigning capacities via assign.
func (s *Store) PublishAll(assign func(m *can.Member) []PublishOption) error {
	for _, m := range s.overlay.CAN().Members() {
		var opts []PublishOption
		if assign != nil {
			opts = assign(m)
		}
		if err := s.PublishMeasured(m, opts...); err != nil {
			return err
		}
	}
	return nil
}
