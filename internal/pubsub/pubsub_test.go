package pubsub

import (
	"math"
	"testing"

	"gsso/internal/can"
	"gsso/internal/ecan"
	"gsso/internal/landmark"
	"gsso/internal/netsim"
	"gsso/internal/simrand"
	"gsso/internal/softstate"
	"gsso/internal/topology"
)

type harness struct {
	net     *topology.Network
	env     *netsim.Env
	overlay *ecan.Overlay
	store   *softstate.Store
	bus     *Bus
}

func newHarness(t testing.TB, members int) *harness {
	t.Helper()
	spec := topology.Spec{
		TransitDomains:        2,
		TransitNodesPerDomain: 4,
		StubsPerTransitNode:   3,
		NodesPerStub:          12,
		ExtraTransitEdgeProb:  0.3,
		ExtraStubEdgeProb:     0.2,
		ExtraInterDomainLinks: 1,
		Latency:               topology.GTITMLatency(),
	}
	net := topology.MustGenerate(spec, simrand.New(1))
	env := netsim.New(net)
	rng := simrand.New(2)
	ov, err := ecan.BuildUniform(net, members, 2, 0, ecan.RandomSelector{RNG: rng.Split("sel")}, rng)
	if err != nil {
		t.Fatal(err)
	}
	set, err := landmark.Choose(net, 6, rng.Split("lm"))
	if err != nil {
		t.Fatal(err)
	}
	space, err := landmark.NewSpace(set, 3, 5,
		landmark.EstimateMaxRTT(net, set, net.RandomStubHosts(rng.Split("est"), 20)))
	if err != nil {
		t.Fatal(err)
	}
	store, err := softstate.NewStore(ov, space, env, softstate.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bus, err := NewBus(store, env)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{net: net, env: env, overlay: ov, store: store, bus: bus}
}

// regionOf returns a digit-aligned region enclosing m.
func regionOf(h *harness, m *can.Member) can.Path {
	return m.Path().Prefix(h.overlay.DigitLen())
}

func TestNewBusValidation(t *testing.T) {
	h := newHarness(t, 16)
	if _, err := NewBus(nil, h.env); err == nil {
		t.Fatal("nil store accepted")
	}
	if _, err := NewBus(h.store, nil); err == nil {
		t.Fatal("nil env accepted")
	}
}

func TestSubscribeValidation(t *testing.T) {
	h := newHarness(t, 16)
	m := h.overlay.CAN().Members()[0]
	region := regionOf(h, m)
	cb := func(Notification) {}
	if _, err := h.bus.Subscribe(nil, region, Condition{Kind: NodeJoined}, cb); err == nil {
		t.Fatal("nil subscriber accepted")
	}
	if _, err := h.bus.Subscribe(m, region, Condition{Kind: NodeJoined}, nil); err == nil {
		t.Fatal("nil callback accepted")
	}
	if _, err := h.bus.Subscribe(m, region, Condition{Kind: LoadAbove}, cb); err == nil {
		t.Fatal("LoadAbove without threshold accepted")
	}
	if _, err := h.bus.Subscribe(m, region, Condition{Kind: CloserCandidate}, cb); err == nil {
		t.Fatal("CloserCandidate without published vector accepted")
	}
}

func TestNodeJoinedNotification(t *testing.T) {
	h := newHarness(t, 32)
	members := h.overlay.CAN().Members()
	sub := members[0]
	// Find another member in the same digit region.
	region := regionOf(h, sub)
	var joiner *can.Member
	for _, m := range members[1:] {
		if m.Path().HasPrefix(region) {
			joiner = m
			break
		}
	}
	if joiner == nil {
		t.Skip("no second member in region")
	}
	var got []Notification
	if _, err := h.bus.Subscribe(sub, region, Condition{Kind: NodeJoined}, func(n Notification) {
		got = append(got, n)
	}); err != nil {
		t.Fatal(err)
	}
	if err := h.store.PublishMeasured(joiner); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("notifications = %d, want 1", len(got))
	}
	if got[0].Event.Kind != softstate.EventPublished || got[0].Event.Entry.Member != joiner {
		t.Fatalf("wrong notification: %+v", got[0].Event)
	}
	if h.env.Messages("notify") != 1 {
		t.Fatalf("notify messages = %d", h.env.Messages("notify"))
	}
	if h.bus.Delivered() != 1 {
		t.Fatalf("Delivered = %d", h.bus.Delivered())
	}
}

func TestSelfEventsNotDelivered(t *testing.T) {
	h := newHarness(t, 32)
	sub := h.overlay.CAN().Members()[0]
	region := regionOf(h, sub)
	fired := 0
	if _, err := h.bus.Subscribe(sub, region, Condition{Kind: NodeJoined}, func(Notification) {
		fired++
	}); err != nil {
		t.Fatal(err)
	}
	if err := h.store.PublishMeasured(sub); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatal("subscriber notified about its own publish")
	}
}

func TestNodeLeftNotification(t *testing.T) {
	h := newHarness(t, 32)
	members := h.overlay.CAN().Members()
	sub := members[0]
	region := regionOf(h, sub)
	var leaver *can.Member
	for _, m := range members[1:] {
		if m.Path().HasPrefix(region) {
			leaver = m
			break
		}
	}
	if leaver == nil {
		t.Skip("no second member in region")
	}
	if err := h.store.PublishMeasured(leaver); err != nil {
		t.Fatal(err)
	}
	fired := 0
	if _, err := h.bus.Subscribe(sub, region, Condition{Kind: NodeLeft}, func(n Notification) {
		fired++
		if n.Event.Kind != softstate.EventRemoved {
			t.Fatalf("kind = %v", n.Event.Kind)
		}
	}); err != nil {
		t.Fatal(err)
	}
	h.store.Remove(leaver)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}

func TestNodeLeftOnExpiry(t *testing.T) {
	h := newHarness(t, 32)
	members := h.overlay.CAN().Members()
	sub := members[0]
	region := regionOf(h, sub)
	var other *can.Member
	for _, m := range members[1:] {
		if m.Path().HasPrefix(region) {
			other = m
			break
		}
	}
	if other == nil {
		t.Skip("no second member in region")
	}
	if err := h.store.PublishMeasured(other); err != nil {
		t.Fatal(err)
	}
	fired := 0
	if _, err := h.bus.Subscribe(sub, region, Condition{Kind: NodeLeft}, func(Notification) {
		fired++
	}); err != nil {
		t.Fatal(err)
	}
	h.env.Clock().Advance(netsim.Time(h.store.Config().TTL) + 1)
	h.store.SweepExpired()
	if fired == 0 {
		t.Fatal("expiry did not notify")
	}
}

func TestLoadAboveThreshold(t *testing.T) {
	h := newHarness(t, 32)
	members := h.overlay.CAN().Members()
	sub := members[0]
	region := regionOf(h, sub)
	var watched *can.Member
	for _, m := range members[1:] {
		if m.Path().HasPrefix(region) {
			watched = m
			break
		}
	}
	if watched == nil {
		t.Skip("no second member in region")
	}
	if err := h.store.PublishMeasured(watched, softstate.WithCapacity(10)); err != nil {
		t.Fatal(err)
	}
	fired := 0
	if _, err := h.bus.Subscribe(sub, region,
		Condition{Kind: LoadAbove, Threshold: 0.8, Member: watched},
		func(Notification) { fired++ }); err != nil {
		t.Fatal(err)
	}
	h.store.UpdateLoad(watched, 5) // 50% — below threshold
	if fired != 0 {
		t.Fatal("notified below threshold")
	}
	h.store.UpdateLoad(watched, 9) // 90%
	if fired == 0 {
		t.Fatal("not notified above threshold")
	}
}

func TestLoadAboveIgnoresOtherMembers(t *testing.T) {
	h := newHarness(t, 64)
	members := h.overlay.CAN().Members()
	sub := members[0]
	region := regionOf(h, sub)
	var inRegion []*can.Member
	for _, m := range members[1:] {
		if m.Path().HasPrefix(region) {
			inRegion = append(inRegion, m)
		}
	}
	if len(inRegion) < 2 {
		t.Skip("need two other members in region")
	}
	watched, other := inRegion[0], inRegion[1]
	for _, m := range []*can.Member{watched, other} {
		if err := h.store.PublishMeasured(m, softstate.WithCapacity(10)); err != nil {
			t.Fatal(err)
		}
	}
	fired := 0
	if _, err := h.bus.Subscribe(sub, region,
		Condition{Kind: LoadAbove, Threshold: 0.5, Member: watched},
		func(Notification) { fired++ }); err != nil {
		t.Fatal(err)
	}
	h.store.UpdateLoad(other, 9)
	if fired != 0 {
		t.Fatal("notified about unwatched member")
	}
}

func TestCloserCandidate(t *testing.T) {
	h := newHarness(t, 64)
	members := h.overlay.CAN().Members()
	sub := members[0]
	if err := h.store.PublishMeasured(sub); err != nil {
		t.Fatal(err)
	}
	region := regionOf(h, sub)
	var fired []Notification
	s, err := h.bus.Subscribe(sub, region, Condition{Kind: CloserCandidate, Margin: 0},
		func(n Notification) { fired = append(fired, n) })
	if err != nil {
		t.Fatal(err)
	}
	// With currentBest = +Inf, any publish in the region fires.
	var others []*can.Member
	for _, m := range members[1:] {
		if m.Path().HasPrefix(region) {
			others = append(others, m)
		}
	}
	if len(others) == 0 {
		t.Skip("no other members in region")
	}
	if err := h.store.PublishMeasured(others[0]); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 {
		t.Fatalf("fired = %d, want 1", len(fired))
	}
	// Tighten currentBest to 0: nothing can beat it.
	s.SetCurrentBest(0)
	fired = nil
	if err := h.store.PublishMeasured(others[0]); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 0 {
		t.Fatal("notified although nothing can be closer than 0")
	}
}

func TestUnsubscribe(t *testing.T) {
	h := newHarness(t, 32)
	members := h.overlay.CAN().Members()
	sub := members[0]
	region := regionOf(h, sub)
	fired := 0
	s, err := h.bus.Subscribe(sub, region, Condition{Kind: NodeJoined}, func(Notification) { fired++ })
	if err != nil {
		t.Fatal(err)
	}
	if h.bus.SubscriptionCount(region) != 1 {
		t.Fatal("subscription not registered")
	}
	h.bus.Unsubscribe(s)
	h.bus.Unsubscribe(s) // double-cancel is a no-op
	if h.bus.SubscriptionCount(region) != 0 {
		t.Fatal("subscription not removed")
	}
	for _, m := range members[1:] {
		if m.Path().HasPrefix(region) {
			if err := h.store.PublishMeasured(m); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if fired != 0 {
		t.Fatal("notified after unsubscribe")
	}
}

func TestMessageAccounting(t *testing.T) {
	h := newHarness(t, 32)
	m := h.overlay.CAN().Members()[0]
	region := regionOf(h, m)
	s, err := h.bus.Subscribe(m, region, Condition{Kind: NodeJoined}, func(Notification) {})
	if err != nil {
		t.Fatal(err)
	}
	if h.env.Messages("subscribe") != 1 {
		t.Fatalf("subscribe messages = %d", h.env.Messages("subscribe"))
	}
	h.bus.Unsubscribe(s)
	if h.env.Messages("subscribe") != 2 {
		t.Fatalf("subscribe messages after cancel = %d", h.env.Messages("subscribe"))
	}
}

func TestCondKindString(t *testing.T) {
	kinds := []CondKind{NodeJoined, NodeLeft, LoadAbove, CloserCandidate, CondKind(99)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Fatal("empty String")
		}
	}
	if !math.IsInf(math.Inf(1), 1) {
		t.Fatal("sanity")
	}
}
