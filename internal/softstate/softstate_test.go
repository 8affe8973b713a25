package softstate

import (
	"sync"
	"sync/atomic"
	"testing"

	"gsso/internal/can"
	"gsso/internal/ecan"
	"gsso/internal/landmark"
	"gsso/internal/netsim"
	"gsso/internal/simrand"
	"gsso/internal/topology"
)

// harness bundles the full stack for store tests.
type harness struct {
	net     *topology.Network
	env     *netsim.Env
	overlay *ecan.Overlay
	space   *landmark.Space
	store   *Store
}

func newHarness(t testing.TB, members int, cfg Config) *harness {
	t.Helper()
	spec := topology.Spec{
		TransitDomains:        3,
		TransitNodesPerDomain: 4,
		StubsPerTransitNode:   3,
		NodesPerStub:          12,
		ExtraTransitEdgeProb:  0.3,
		ExtraStubEdgeProb:     0.2,
		ExtraInterDomainLinks: 2,
		Latency:               topology.GTITMLatency(),
	}
	net := topology.MustGenerate(spec, simrand.New(1))
	env := netsim.New(net)
	rng := simrand.New(2)
	ov, err := ecan.BuildUniform(net, members, 2, 0, ecan.RandomSelector{RNG: rng.Split("sel")}, rng)
	if err != nil {
		t.Fatal(err)
	}
	set, err := landmark.Choose(net, 8, rng.Split("landmarks"))
	if err != nil {
		t.Fatal(err)
	}
	maxRTT := landmark.EstimateMaxRTT(net, set, net.RandomStubHosts(rng.Split("est"), 30))
	space, err := landmark.NewSpace(set, 3, 5, maxRTT)
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewStore(ov, space, env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{net: net, env: env, overlay: ov, space: space, store: store}
}

// vector returns a landmark vector with every component at frac·MaxRTT.
func (h *harness) vector(frac float64) landmark.Vector {
	vec := make(landmark.Vector, h.space.Set().Len())
	for i := range vec {
		vec[i] = frac * h.space.MaxRTT()
	}
	return vec
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"default", func(c *Config) {}, true},
		{"zero-ttl", func(c *Config) { c.TTL = 0 }, false},
		{"negative-condense", func(c *Config) { c.CondenseDepth = -1 }, false},
		{"huge-condense", func(c *Config) { c.CondenseDepth = 33 }, false},
		{"zero-return", func(c *Config) { c.MaxReturn = 0 }, false},
		{"negative-expand", func(c *Config) { c.ExpandBudget = -1 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mutate(&cfg)
			err := cfg.validate()
			if (err == nil) != tc.ok {
				t.Fatalf("validate() = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestNewStoreValidation(t *testing.T) {
	h := newHarness(t, 16, DefaultConfig())
	if _, err := NewStore(nil, h.space, h.env, DefaultConfig()); err == nil {
		t.Fatal("nil overlay accepted")
	}
	if _, err := NewStore(h.overlay, nil, h.env, DefaultConfig()); err == nil {
		t.Fatal("nil space accepted")
	}
	if _, err := NewStore(h.overlay, h.space, nil, DefaultConfig()); err == nil {
		t.Fatal("nil env accepted")
	}
	bad := DefaultConfig()
	bad.TTL = -1
	if _, err := NewStore(h.overlay, h.space, h.env, bad); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestPublishPopulatesDigitAlignedRegions(t *testing.T) {
	h := newHarness(t, 32, DefaultConfig())
	m := h.overlay.CAN().Members()[0]
	if err := h.store.PublishMeasured(m); err != nil {
		t.Fatal(err)
	}
	d := h.overlay.DigitLen()
	wantRegions := m.Depth() / d
	found := 0
	for l := d; l <= m.Depth(); l += d {
		region := m.Path().Prefix(l)
		entries := h.store.RegionEntries(region)
		if len(entries) != 1 || entries[0].Member != m {
			t.Fatalf("region %s entries = %v", region, entries)
		}
		found++
	}
	if found != wantRegions {
		t.Fatalf("found %d regions, want %d", found, wantRegions)
	}
	if h.store.TotalEntries() != wantRegions {
		t.Fatalf("TotalEntries = %d, want %d", h.store.TotalEntries(), wantRegions)
	}
	if h.env.Messages("publish") != int64(wantRegions) {
		t.Fatalf("publish messages = %d, want %d", h.env.Messages("publish"), wantRegions)
	}
	if _, ok := h.store.Number(m); !ok {
		t.Fatal("number not recorded")
	}
	if h.store.Vector(m) == nil {
		t.Fatal("vector not recorded")
	}
}

// TestLogNMapsBound asserts §5.1's cost claim: "each node will appear in
// a maximum of log(N) such maps".
func TestLogNMapsBound(t *testing.T) {
	h := newHarness(t, 128, DefaultConfig())
	if err := h.store.PublishAll(nil); err != nil {
		t.Fatal(err)
	}
	d := h.overlay.DigitLen()
	perMember := map[*can.Member]int{}
	for _, m := range h.overlay.CAN().Members() {
		for l := d; l <= m.Depth(); l += d {
			entries := h.store.RegionEntries(m.Path().Prefix(l))
			for _, e := range entries {
				if e.Member == m {
					perMember[m]++
				}
			}
		}
	}
	for m, count := range perMember {
		bound := (m.Depth() + d - 1) / d // ceil(depth / digit) ~ log_{2^d}(N)
		if count > bound {
			t.Fatalf("member %v appears in %d maps, bound %d", m, count, bound)
		}
	}
	if h.store.TotalEntries() > 128*8 {
		t.Fatalf("total entries %d exceed N log N ballpark", h.store.TotalEntries())
	}
}

func TestPublishEventsAndRefresh(t *testing.T) {
	h := newHarness(t, 32, DefaultConfig())
	m := h.overlay.CAN().Members()[0]
	var events []Event
	h.store.AddEventSink(func(ev Event) { events = append(events, ev) })
	if err := h.store.PublishMeasured(m, WithCapacity(4)); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if ev.Kind != EventPublished {
			t.Fatalf("first publish emitted %v", ev.Kind)
		}
		if ev.Entry.Capacity != 4 {
			t.Fatalf("capacity option lost: %v", ev.Entry.Capacity)
		}
	}
	firstCount := len(events)
	if firstCount == 0 {
		t.Fatal("no events emitted")
	}
	events = nil
	h.env.Clock().Advance(10)
	if err := h.store.PublishMeasured(m); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if ev.Kind != EventRefreshed {
			t.Fatalf("re-publish emitted %v", ev.Kind)
		}
		if ev.Entry.Capacity != 4 {
			t.Fatal("capacity not preserved across refresh")
		}
	}
}

func TestRefreshAllBatchesAndRestamps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TTL = 100
	h := newHarness(t, 32, cfg)
	if err := h.store.PublishAll(nil); err != nil {
		t.Fatal(err)
	}
	total := h.store.TotalEntries()
	published := h.env.Messages("publish")

	// Advance close to expiry, then refresh: every entry must survive the
	// sweep afterwards, having been re-stamped from the stored state.
	h.env.Clock().Advance(90)
	var refreshEvents int
	h.store.AddEventSink(func(ev Event) {
		if ev.Kind == EventRefreshed {
			refreshEvents++
		}
	})
	n := h.store.RefreshAll()
	if n != total {
		t.Fatalf("refreshed %d entries, store holds %d", n, total)
	}
	if refreshEvents != total {
		t.Fatalf("%d refresh events for %d entries", refreshEvents, total)
	}
	// The refresh is batched: one refresh-batch message per member, not
	// one publish per region map.
	members := int64(len(h.overlay.CAN().Members()))
	if got := h.env.Messages("refresh-batch"); got != members {
		t.Fatalf("refresh-batch messages = %d, want one per member (%d)", got, members)
	}
	if got := h.env.Messages("publish"); got != published {
		t.Fatalf("refresh spent %d publish messages; must coalesce instead", got-published)
	}

	h.env.Clock().Advance(90) // past the original expiry, before the new one
	if dropped := h.store.SweepExpired(); dropped != 0 {
		t.Fatalf("sweep dropped %d refreshed entries", dropped)
	}
	// Without another refresh the new deadline passes and everything dies.
	h.env.Clock().Advance(20)
	if dropped := h.store.SweepExpired(); dropped != total {
		t.Fatalf("sweep after TTL dropped %d of %d", dropped, total)
	}
	// An empty store refreshes to zero without metering a batch.
	before := h.env.Messages("refresh-batch")
	if n := h.store.RefreshAll(); n != 0 {
		t.Fatalf("refresh of swept store touched %d entries", n)
	}
	if got := h.env.Messages("refresh-batch"); got != before {
		t.Fatal("empty refresh metered a batch message")
	}
}

func TestUpdateLoad(t *testing.T) {
	h := newHarness(t, 32, DefaultConfig())
	m := h.overlay.CAN().Members()[0]
	if err := h.store.PublishMeasured(m); err != nil {
		t.Fatal(err)
	}
	var loadEvents int
	h.store.AddEventSink(func(ev Event) {
		if ev.Kind == EventLoadChanged {
			loadEvents++
			if ev.Entry.Load != 0.75 {
				t.Fatalf("load = %v", ev.Entry.Load)
			}
		}
	})
	h.store.UpdateLoad(m, 0.75)
	if loadEvents == 0 {
		t.Fatal("no load events")
	}
	// Unpublished member: no events, no crash.
	other := h.overlay.CAN().Members()[1]
	loadEvents = 0
	h.store.UpdateLoad(other, 0.5)
	if loadEvents != 0 {
		t.Fatal("unpublished member emitted load events")
	}
}

func TestRemove(t *testing.T) {
	h := newHarness(t, 32, DefaultConfig())
	m := h.overlay.CAN().Members()[0]
	if err := h.store.PublishMeasured(m); err != nil {
		t.Fatal(err)
	}
	removed := 0
	h.store.AddEventSink(func(ev Event) {
		if ev.Kind == EventRemoved {
			removed++
		}
	})
	h.store.Remove(m)
	if h.store.TotalEntries() != 0 {
		t.Fatalf("entries remain: %d", h.store.TotalEntries())
	}
	if removed == 0 {
		t.Fatal("no removal events")
	}
	if h.store.Vector(m) != nil {
		t.Fatal("vector not cleared")
	}
}

func TestSweepExpired(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TTL = 100
	h := newHarness(t, 32, cfg)
	m := h.overlay.CAN().Members()[0]
	if err := h.store.PublishMeasured(m); err != nil {
		t.Fatal(err)
	}
	if dropped := h.store.SweepExpired(); dropped != 0 {
		t.Fatalf("fresh entries swept: %d", dropped)
	}
	h.env.Clock().Advance(101)
	expired := 0
	h.store.AddEventSink(func(ev Event) {
		if ev.Kind == EventExpired {
			expired++
		}
	})
	dropped := h.store.SweepExpired()
	if dropped == 0 || expired != dropped {
		t.Fatalf("dropped %d, events %d", dropped, expired)
	}
	if h.store.TotalEntries() != 0 {
		t.Fatal("expired entries remain")
	}
}

func TestLookupSkipsExpired(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TTL = 100
	h := newHarness(t, 64, cfg)
	if err := h.store.PublishAll(nil); err != nil {
		t.Fatal(err)
	}
	m := h.overlay.CAN().Members()[0]
	region := can.Path{}.Prefix(0)
	region = m.Path().Prefix(h.overlay.DigitLen())
	vec := h.store.Vector(m)
	before, _, err := h.store.Lookup(region, vec)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) == 0 {
		t.Fatal("no entries before expiry")
	}
	h.env.Clock().Advance(101)
	after, _, err := h.store.Lookup(region, vec)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 0 {
		t.Fatalf("expired entries returned: %d", len(after))
	}
}

func TestLookupReturnsClosestByVector(t *testing.T) {
	h := newHarness(t, 128, DefaultConfig())
	if err := h.store.PublishAll(nil); err != nil {
		t.Fatal(err)
	}
	m := h.overlay.CAN().Members()[0]
	vec := h.store.Vector(m)
	d := h.overlay.DigitLen()
	region := m.Path().Prefix(d)
	entries, cost, err := h.store.Lookup(region, vec)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no entries")
	}
	if len(entries) > h.store.Config().MaxReturn {
		t.Fatalf("returned %d > MaxReturn", len(entries))
	}
	if cost.RouteMessages != 2 {
		t.Fatalf("RouteMessages = %d", cost.RouteMessages)
	}
	if cost.ExpandHops > h.store.Config().ExpandBudget {
		t.Fatalf("ExpandHops %d exceeds budget", cost.ExpandHops)
	}
	// Returned entries sorted by full-vector distance.
	for i := 1; i < len(entries); i++ {
		if landmark.Distance(entries[i-1].Vector, vec) > landmark.Distance(entries[i].Vector, vec) {
			t.Fatal("entries not sorted by vector distance")
		}
	}
	// All entries belong to the queried region.
	for _, e := range entries {
		if !e.Member.Path().HasPrefix(region) {
			t.Fatalf("entry %v outside region %s", e.Member, region)
		}
	}
}

func TestLookupEmptyRegion(t *testing.T) {
	h := newHarness(t, 32, DefaultConfig())
	m := h.overlay.CAN().Members()[0]
	if err := h.store.PublishMeasured(m); err != nil {
		t.Fatal(err)
	}
	// A region that exists but no-one published into: use a non-aligned path.
	odd := m.Path().Prefix(1)
	entries, _, err := h.store.Lookup(odd, h.store.Vector(m))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatal("entries from unpublished region")
	}
}

func TestLookupQuality(t *testing.T) {
	// The top lookup result should be physically closer than the average
	// region member — the whole point of the mechanism.
	h := newHarness(t, 128, DefaultConfig())
	if err := h.store.PublishAll(nil); err != nil {
		t.Fatal(err)
	}
	members := h.overlay.CAN().Members()
	d := h.overlay.DigitLen()
	better, worse := 0, 0
	for _, m := range members[:40] {
		// Query the sibling digit region (what neighbor selection does).
		myDigit := 0
		for b := 0; b < d; b++ {
			myDigit = myDigit<<1 | m.Path().Bit(b)
		}
		region := m.Path().Prefix(0)
		for b := d - 1; b >= 0; b-- {
			bit := ((myDigit ^ 1) >> b) & 1
			region = can.Path{Bits: region.Bits | uint64(bit)<<(63-region.Len), Len: region.Len + 1}
		}
		cands := h.overlay.RegionMembers(region)
		if len(cands) < 4 {
			continue
		}
		entries, _, err := h.store.Lookup(region, h.store.Vector(m))
		if err != nil || len(entries) == 0 {
			continue
		}
		top := h.env.Latency(m.Host, entries[0].Host)
		avg := 0.0
		for _, c := range cands {
			avg += h.env.Latency(m.Host, c.Host)
		}
		avg /= float64(len(cands))
		if top < avg {
			better++
		} else {
			worse++
		}
	}
	if better <= worse*2 {
		t.Fatalf("lookup top candidate rarely beats region average: %d vs %d", better, worse)
	}
	t.Logf("top lookup candidate beat region average %d/%d times", better, better+worse)
}

func TestPlacementDeterministicAndCondensed(t *testing.T) {
	h := newHarness(t, 32, DefaultConfig())
	region := h.overlay.CAN().Members()[0].Path().Prefix(2)
	p1 := h.store.placementPath(region, 12345)
	p2 := h.store.placementPath(region, 12345)
	if p1 != p2 {
		t.Fatal("placement not deterministic")
	}
	if !p1.HasPrefix(region) {
		t.Fatal("placement escapes the region")
	}
	// Condensed store: placement confined to the zero sub-block.
	cfg := DefaultConfig()
	cfg.CondenseDepth = 3
	condensed, err := NewStore(h.overlay, h.space, h.env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pc := condensed.placementPath(region, ^uint64(0))
	for i := 0; i < 3; i++ {
		if pc.Bit(region.Len+i) != 0 {
			t.Fatal("condense bits not zero")
		}
	}
}

func TestOwnerOfStable(t *testing.T) {
	h := newHarness(t, 64, DefaultConfig())
	region := h.overlay.CAN().Members()[0].Path().Prefix(2)
	o1 := h.store.OwnerOf(region, 999)
	o2 := h.store.OwnerOf(region, 999)
	if o1 == nil || o1 != o2 {
		t.Fatalf("owner unstable: %v vs %v", o1, o2)
	}
	if !o1.Path().HasPrefix(region) && !region.HasPrefix(o1.Path()) {
		t.Fatal("owner unrelated to region")
	}
}

func TestCondenseConcentratesEntries(t *testing.T) {
	build := func(condense int) (maxPerOwner int, owners int) {
		cfg := DefaultConfig()
		cfg.CondenseDepth = condense
		h := newHarness(t, 128, cfg)
		if err := h.store.PublishAll(nil); err != nil {
			t.Fatal(err)
		}
		counts := h.store.EntriesPerOwner()
		total := 0
		for _, c := range counts {
			total += c
			if c > maxPerOwner {
				maxPerOwner = c
			}
		}
		if total != h.store.TotalEntries() {
			t.Fatalf("per-owner counts sum %d != total %d", total, h.store.TotalEntries())
		}
		return maxPerOwner, len(counts)
	}
	maxSpread, ownersSpread := build(0)
	maxCond, ownersCond := build(6)
	t.Logf("condense=0: max/owner %d over %d owners; condense=6: max/owner %d over %d owners",
		maxSpread, ownersSpread, maxCond, ownersCond)
	if ownersCond > ownersSpread {
		t.Fatal("condensing increased the owner population")
	}
	if maxCond < maxSpread {
		t.Fatal("condensing did not concentrate entries")
	}
}

func TestSelectorValidation(t *testing.T) {
	h := newHarness(t, 16, DefaultConfig())
	if _, err := NewSelector(nil, 5, nil); err == nil {
		t.Fatal("nil store accepted")
	}
	if _, err := NewSelector(h.store, 0, nil); err == nil {
		t.Fatal("zero budget accepted")
	}
	if _, err := NewSelector(h.store, 5, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSelectorRespectsBudget(t *testing.T) {
	h := newHarness(t, 128, DefaultConfig())
	if err := h.store.PublishAll(nil); err != nil {
		t.Fatal(err)
	}
	sel, err := NewSelector(h.store, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := h.overlay.CAN().Members()[0]
	d := h.overlay.DigitLen()
	region := m.Path().Prefix(d) // sibling-ish region; content guaranteed
	cands := h.overlay.RegionMembers(region)
	h.env.ResetProbes()
	got := sel.Select(m, region, cands)
	if got == nil {
		t.Fatal("selector returned nil")
	}
	if h.env.Probes() > 3 {
		t.Fatalf("selector used %d probes, budget 3", h.env.Probes())
	}
}

func TestSelectorFallsBackWithoutVector(t *testing.T) {
	h := newHarness(t, 32, DefaultConfig())
	fallbackUsed := false
	fb := ecan.FuncSelector(func(self *can.Member, region can.Path, cands []*can.Member) *can.Member {
		fallbackUsed = true
		return cands[0]
	})
	sel, err := NewSelector(h.store, 3, fb)
	if err != nil {
		t.Fatal(err)
	}
	m := h.overlay.CAN().Members()[0] // never published
	got := sel.Select(m, m.Path().Prefix(2), h.overlay.CAN().Members())
	if !fallbackUsed || got == nil {
		t.Fatal("fallback not used for unpublished node")
	}
}

func TestSelectorNilFallbackUsesFirstCandidate(t *testing.T) {
	h := newHarness(t, 32, DefaultConfig())
	sel, _ := NewSelector(h.store, 3, nil)
	m := h.overlay.CAN().Members()[0]
	cands := h.overlay.CAN().Members()
	if got := sel.Select(m, m.Path().Prefix(2), cands); got != cands[0] {
		t.Fatal("nil fallback did not use first candidate")
	}
	if got := sel.Select(m, m.Path().Prefix(2), nil); got != nil {
		t.Fatal("empty candidates should return nil")
	}
}

func TestEndToEndStretchOrdering(t *testing.T) {
	// random >= softstate >= optimal, the paper's headline ordering.
	h := newHarness(t, 128, DefaultConfig())
	if err := h.store.PublishAll(nil); err != nil {
		t.Fatal(err)
	}
	measure := func(sel ecan.Selector) float64 {
		h.overlay.SetSelector(sel)
		members := h.overlay.CAN().Members()
		rng := simrand.New(123)
		total, count := 0.0, 0
		for i := 0; i < 300; i++ {
			src := members[rng.Intn(len(members))]
			dst := members[rng.Intn(len(members))]
			if src == dst || src.Host == dst.Host {
				continue
			}
			res, err := h.overlay.Route(src, dst.ZoneCenter())
			if err != nil {
				t.Fatal(err)
			}
			direct := h.env.Latency(src.Host, dst.Host)
			if direct <= 0 {
				continue
			}
			total += res.Latency(h.env) / direct
			count++
		}
		return total / float64(count)
	}
	randomStretch := measure(ecan.RandomSelector{RNG: simrand.New(5)})
	ssSel, err := NewSelector(h.store, 10, ecan.RandomSelector{RNG: simrand.New(6)})
	if err != nil {
		t.Fatal(err)
	}
	ssStretch := measure(ssSel)
	optStretch := measure(ecan.ClosestSelector{Env: h.env})
	t.Logf("stretch: random %.3f, softstate %.3f, optimal %.3f", randomStretch, ssStretch, optStretch)
	// Soft-state must decisively beat random and land near the oracle.
	// (Per-hop-greedy "optimal" is not globally optimal over multi-hop
	// routes, so tiny inversions between it and softstate are legitimate.)
	if ssStretch >= randomStretch*0.8 {
		t.Fatalf("softstate %.3f not clearly better than random %.3f", ssStretch, randomStretch)
	}
	if optStretch >= randomStretch*0.8 {
		t.Fatalf("optimal %.3f not clearly better than random %.3f", optStretch, randomStretch)
	}
	gapToOracle := ssStretch - optStretch
	if gapToOracle > (randomStretch-optStretch)*0.3 {
		t.Fatalf("softstate %.3f too far from oracle %.3f (random %.3f)",
			ssStretch, optStretch, randomStretch)
	}
}

// TestRepublishToNewNumber republishes a member far along the curve: its
// entries must move to the new number with their capacity, leaving no
// stale copy behind for Remove to miss.
func TestRepublishToNewNumber(t *testing.T) {
	h := newHarness(t, 16, DefaultConfig())
	m := h.overlay.CAN().Members()[0]
	if err := h.store.Publish(m, h.vector(0), WithCapacity(4)); err != nil {
		t.Fatal(err)
	}
	numLow, _ := h.store.Number(m)
	if err := h.store.Publish(m, h.vector(0.9)); err != nil {
		t.Fatal(err)
	}
	numHigh, _ := h.store.Number(m)
	if numLow == numHigh {
		t.Fatalf("test vectors share number %d", numLow)
	}
	regions := h.store.regionsOf(m)
	if got := h.store.TotalEntries(); got != len(regions) {
		t.Fatalf("TotalEntries after republish = %d, want %d", got, len(regions))
	}
	for _, region := range regions {
		entries := h.store.RegionEntries(region)
		if len(entries) != 1 || entries[0].Number != numHigh || entries[0].Capacity != 4 {
			t.Fatalf("region %v after republish: %v", region, entries)
		}
	}
	h.store.Remove(m)
	if got := h.store.TotalEntries(); got != 0 {
		t.Fatalf("%d entries survive removal after republish", got)
	}
}

// TestFilteredRepublishKeepsOldEntry republishes a member to a new number
// while a publish filter blocks one of its regions. The write to that
// region cannot land, so the region keeps the old entry: it is neither
// lost silently nor miscounted.
func TestFilteredRepublishKeepsOldEntry(t *testing.T) {
	h := newHarness(t, 16, DefaultConfig())
	var m *can.Member
	for _, c := range h.overlay.CAN().Members() {
		if len(h.store.regionsOf(c)) >= 2 {
			m = c
			break
		}
	}
	if m == nil {
		t.Fatal("no member encloses two regions")
	}
	if err := h.store.Publish(m, h.vector(0)); err != nil {
		t.Fatal(err)
	}
	oldNum, _ := h.store.Number(m)
	blocked := h.store.regionsOf(m)[0]
	h.store.SetPublishFilter(func(region can.Path, _ uint64) bool { return region != blocked })
	var removed int
	h.store.AddEventSink(func(ev Event) {
		if ev.Kind == EventRemoved || ev.Kind == EventExpired {
			removed++
		}
	})
	if err := h.store.Publish(m, h.vector(0.9)); err != nil {
		t.Fatal(err)
	}
	if newNum, _ := h.store.Number(m); newNum == oldNum {
		t.Fatalf("test vectors share number %d", oldNum)
	}
	entries := h.store.RegionEntries(blocked)
	if len(entries) != 1 || entries[0].Number != oldNum {
		t.Fatalf("blocked region holds %v, want the old entry at number %d", entries, oldNum)
	}
	want := len(h.store.regionsOf(m))
	if got := h.store.TotalEntries(); got != want {
		t.Fatalf("TotalEntries = %d, want %d", got, want)
	}
	if removed != 0 {
		t.Fatalf("%d removal events for a republish", removed)
	}
}

// TestStoreConcurrentHammer drives publishes, refreshes, load updates,
// lookups, sweeps, and removals from many goroutines at once. Run under
// -race this is the store's concurrency contract test; the final state
// must also be internally consistent.
func TestStoreConcurrentHammer(t *testing.T) {
	h := newHarness(t, 64, DefaultConfig())
	s := h.store
	var eventCount atomic.Int64
	s.AddEventSink(func(Event) { eventCount.Add(1) })
	members := h.overlay.CAN().Members()
	if err := s.PublishAll(nil); err != nil {
		t.Fatal(err)
	}

	const rounds = 40
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				m := members[(w*rounds+i)%len(members)]
				if err := s.PublishMeasured(m); err != nil {
					t.Errorf("publish: %v", err)
					return
				}
				s.UpdateLoad(m, float64(i))
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				m := members[(w*rounds+3*i)%len(members)]
				region := s.regionsOf(m)[0]
				vec := landmark.Measure(h.env, m.Host, h.space.Set())
				if _, _, err := s.Lookup(region, vec); err != nil {
					t.Errorf("lookup: %v", err)
					return
				}
				_ = s.TotalEntries()
				_ = s.RegionEntries(region)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds/4; i++ {
			s.RefreshAll()
			s.SweepExpired()
			_ = s.EntriesPerOwner()
		}
	}()
	wg.Wait()

	if eventCount.Load() == 0 {
		t.Fatal("no events reached the sink")
	}
	// Consistency: the live count must agree with a full recount.
	recount := 0
	s.mu.Lock()
	for _, rm := range s.maps {
		recount += len(rm.entries)
	}
	s.mu.Unlock()
	if got := s.TotalEntries(); got != recount {
		t.Fatalf("TotalEntries = %d, recount = %d", got, recount)
	}
	// Every member published; nothing expired (TTL 60s, no clock advance)
	// and nothing was removed, so exactly one entry per enclosing region
	// per member must remain.
	want := 0
	for _, m := range members {
		want += len(s.regionsOf(m))
	}
	if recount != want {
		t.Fatalf("recount = %d, want %d entries", recount, want)
	}
}
