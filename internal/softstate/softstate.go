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
// widen along the curve if the owner holds too few entries, sort what was
// found by full-vector distance, return the top X. The caller then
// RTT-probes those X candidates — the hybrid landmark+RTT scheme.
//
// # Concurrency
//
// One mutex guards every region map, every member's published position
// and the live-entry count. Entries are copy-on-write — immutable once
// inserted; refresh and load updates replace the pointer — so the
// snapshots Lookup and events hand out stay valid without the lock. The
// publish filter runs before the lock is taken and event sinks run after
// it is released, so both may re-enter the store. Configuration
// (AddEventSink, SetPublishFilter) must happen before concurrent use.
package softstate

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"gsso/internal/can"
	"gsso/internal/ecan"
	"gsso/internal/landmark"
	"gsso/internal/netsim"
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
}

// DefaultConfig returns the defaults used across experiments.
func DefaultConfig() Config {
	return Config{TTL: 60_000, CondenseDepth: 0, MaxReturn: 10, ExpandBudget: 8}
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
	}
	return nil
}

// regionMap is one region's proximity map: entries keyed by member, plus a
// number-sorted view rebuilt lazily for curve-order expansion. The rebuild
// allocates a fresh slice so a view handed out under the store's lock
// stays valid after the lock drops.
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

// memberState is a member's published position.
type memberState struct {
	vector landmark.Vector
	number uint64
}

// Store holds every region map of one overlay plus the metadata needed
// to place and retrieve entries (see the package comment for the locking
// discipline).
type Store struct {
	overlay *ecan.Overlay
	space   *landmark.Space
	env     *netsim.Env
	cfg     Config

	mu      sync.Mutex // guards maps, members and live
	maps    map[can.Path]*regionMap
	members map[*can.Member]memberState
	live    int // entries across all maps

	sinks  []func(Event)
	filter func(region can.Path, number uint64) bool
}

// NewStore builds an empty store over ov.
func NewStore(ov *ecan.Overlay, space *landmark.Space, env *netsim.Env, cfg Config) (*Store, error) {
	if ov == nil || space == nil || env == nil {
		return nil, errors.New("softstate: nil overlay, space, or env")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Store{
		overlay: ov,
		space:   space,
		env:     env,
		cfg:     cfg,
		maps:    make(map[can.Path]*regionMap),
		members: make(map[*can.Member]memberState),
	}, nil
}

// Config returns the store's configuration.
func (s *Store) Config() Config { return s.cfg }

// Space returns the landmark space in use.
func (s *Store) Space() *landmark.Space { return s.space }

// Env returns the simulation environment the store meters against.
func (s *Store) Env() *netsim.Env { return s.env }

// Overlay returns the eCAN the store serves.
func (s *Store) Overlay() *ecan.Overlay { return s.overlay }

// AddEventSink appends a map-change observer after any already
// installed; sinks run in the order they were added. The pub/sub bus
// installs itself this way, and package core's failure detector after it.
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
// the store's lock.
func (s *Store) SetPublishFilter(fn func(region can.Path, number uint64) bool) {
	s.filter = fn
}

// emitAll delivers events collected during a locked mutation. It runs
// with the store's lock released, so sinks may re-enter the store freely.
func (s *Store) emitAll(evs []Event) {
	for _, ev := range evs {
		for _, sink := range s.sinks {
			sink(ev)
		}
	}
}

// loadMember returns m's published state, if any.
func (s *Store) loadMember(m *can.Member) (memberState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.members[m]
	return st, ok
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
	num, err := s.space.Number(vec)
	if err != nil {
		return err
	}
	vcopy := append(landmark.Vector(nil), vec...)

	// The publish filter runs before the lock: it is caller code and must
	// not observe the store mid-mutation. A blocked region keeps the entry
	// it held, if any: the write could not land, so its old owner still
	// answers with the old record.
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
	s.mu.Lock()
	s.members[m] = memberState{vector: vcopy, number: num}
	for _, region := range kept {
		rm := s.maps[region]
		if rm == nil {
			rm = &regionMap{entries: make(map[*can.Member]*Entry)}
			s.maps[region] = rm
		}
		e := &Entry{
			Member:  m,
			Host:    m.Host,
			Vector:  vcopy,
			Number:  num,
			Expires: now + s.cfg.TTL,
		}
		kind := EventRefreshed
		if prev, ok := rm.entries[m]; ok {
			e.Capacity, e.Load = prev.Capacity, prev.Load
		} else {
			kind = EventPublished
			s.live++
		}
		for _, opt := range opts {
			opt(e)
		}
		rm.entries[m] = e
		rm.dirty = true
		events = append(events, Event{Kind: kind, Region: region, Entry: e})
	}
	s.mu.Unlock()

	s.emitAll(events)
	if dropped > 0 {
		s.env.CountMessages("publish-dropped", dropped)
	}
	s.env.CountMessages("publish", len(kept))
	return nil
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
	var events []Event
	s.mu.Lock()
	if _, ok := s.members[m]; !ok {
		s.mu.Unlock()
		return
	}
	for region, rm := range s.maps {
		if e, ok := rm.entries[m]; ok {
			ne := *e
			ne.Load = load
			rm.entries[m] = &ne
			rm.dirty = true
			events = append(events, Event{Kind: EventLoadChanged, Region: region, Entry: &ne})
		}
	}
	s.mu.Unlock()
	s.emitAll(events)
	if len(events) > 0 {
		s.env.CountMessages("publish", len(events))
	}
}

// deleteAll removes every entry describing m from every map, emitting
// EventRemoved per region and metering the deletions under category.
func (s *Store) deleteAll(m *can.Member, category string) int {
	var events []Event
	s.mu.Lock()
	if _, ok := s.members[m]; !ok {
		s.mu.Unlock()
		return 0
	}
	delete(s.members, m)
	for region, rm := range s.maps {
		if e, ok := rm.entries[m]; ok {
			delete(rm.entries, m)
			rm.dirty = true
			events = append(events, Event{Kind: EventRemoved, Region: region, Entry: e})
		}
	}
	s.live -= len(events)
	s.mu.Unlock()
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
// maintenance mode) and returns how many were dropped.
func (s *Store) SweepExpired() int {
	now := s.env.Clock().Now()
	var events []Event
	s.mu.Lock()
	for region, rm := range s.maps {
		for m, e := range rm.entries {
			if e.Expires < now {
				delete(rm.entries, m)
				rm.dirty = true
				events = append(events, Event{Kind: EventExpired, Region: region, Entry: e})
			}
		}
	}
	s.live -= len(events)
	s.mu.Unlock()
	s.emitAll(events)
	return len(events)
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
// announce them), but the live-entry count is adjusted. Returns the
// number of entries lost. Entries with at least one live owner survive:
// that is what the replicated placement buys.
func (s *Store) LoseShards(down func(*can.Member) bool, k int) int {
	lost := 0
	s.mu.Lock()
	for region, rm := range s.maps {
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
				lost++
			}
		}
	}
	s.live -= lost
	s.mu.Unlock()
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

// Lookup implements Table 1: find up to MaxReturn entries of region's map
// closest to vec, by indexing the map with vec's landmark number, widening
// along the curve within ExpandBudget, then sorting by full-vector
// distance. Expired entries are skipped (and left for SweepExpired).
// The queried region must be one of the high-order regions (digit-aligned
// prefixes); for deeper paths the covering region's map is consulted.
func (s *Store) Lookup(region can.Path, vec landmark.Vector) ([]*Entry, LookupCost, error) {
	num, err := s.space.Number(vec)
	if err != nil {
		return nil, LookupCost{}, err
	}
	cost := LookupCost{RouteMessages: 2} // request + reply
	s.env.CountMessages("lookup", 2)

	// Snapshot the region's sorted view under the lock; entries are
	// copy-on-write, so the walk below needs no lock.
	var sorted []*Entry
	s.mu.Lock()
	if rm := s.maps[region]; rm != nil {
		sorted = rm.sortedEntries()
	}
	s.mu.Unlock()
	if len(sorted) == 0 {
		return nil, cost, nil
	}
	now := s.env.Clock().Now()

	// hi is the first entry with Number >= num, lo the entry just before
	// it; a side is closed once its cursor leaves the slice.
	hi := sort.Search(len(sorted), func(k int) bool { return sorted[k].Number >= num })
	lo := hi - 1

	// The owner we landed on plus curve-order expansion: walk outward
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
	for len(gathered) < want && (lo >= 0 || hi < len(sorted)) {
		// Prefer the side whose number is closer to ours, the lower on a
		// tie.
		if lo >= 0 && (hi == len(sorted) || num-sorted[lo].Number <= sorted[hi].Number-num) {
			if visit(sorted[lo]) {
				lo--
			} else {
				lo = -1
			}
		} else if visit(sorted[hi]) {
			hi++
		} else {
			hi = len(sorted)
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
	s.mu.Lock()
	defer s.mu.Unlock()
	for region, rm := range s.maps {
		for _, e := range rm.entries {
			if owner := s.OwnerOf(region, e.Number); owner != nil {
				counts[owner]++
			}
		}
	}
	return counts
}

// TotalEntries returns the number of entries across all maps (including
// any not yet swept).
func (s *Store) TotalEntries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live
}

// RegionEntries returns the live entries of one region's map (fresh
// slice, unsorted).
func (s *Store) RegionEntries(region can.Path) []*Entry {
	now := s.env.Clock().Now()
	var out []*Entry
	s.mu.Lock()
	defer s.mu.Unlock()
	if rm := s.maps[region]; rm != nil {
		for _, e := range rm.entries {
			if e.Expires >= now {
				out = append(out, e)
			}
		}
	}
	return out
}

// RefreshAll re-stamps expiry now+TTL on every map entry each published
// member still holds — the simulator analogue of the wire layer's
// batched refresh: a member's refreshes to all of its region maps are
// coalesced into one metered "refresh-batch" message instead of one
// "publish" per map (what per-entry Publish would cost). EventRefreshed
// still fires per entry so every event sink sees every touch. Members
// behind a publish filter keep their filtered-out regions unrefreshed,
// exactly as Publish would. Returns how many entries were refreshed.
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
		s.mu.Lock()
		for _, region := range kept {
			rm := s.maps[region]
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
		s.mu.Unlock()
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
