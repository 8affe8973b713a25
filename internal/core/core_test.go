package core

import (
	"maps"
	"math"
	"sync"
	"testing"

	"gsso/internal/can"
	"gsso/internal/netsim"
	"gsso/internal/pubsub"
	"gsso/internal/simrand"
	"gsso/internal/softstate"
	"gsso/internal/topology"
)

// testNet is the world every test system is deployed on: tsk-large at
// 0.15 scale (about 1.6k hosts), generated once per test binary.
var testNet = sync.OnceValue(func() *topology.Network {
	return topology.MustGenerate(topology.TSKLarge(topology.GTITMLatency()).Scaled(0.15),
		simrand.New(1).Split("topo"))
})

func newSystem(t testing.TB, opts ...Option) *System {
	t.Helper()
	base := []Option{WithSeed(1), WithNetwork(testNet()), WithOverlaySize(96), WithLandmarks(6)}
	sys, err := New(append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestRefreshSoftState: one batched tick re-stamps every live entry so
// the TTL sweep finds nothing, at a cost of one refresh-batch message
// per member rather than one publish per region map.
func TestRefreshSoftState(t *testing.T) {
	sys := newSystem(t, WithSoftStateTTL(100))
	total := sys.Store().TotalEntries()
	if total == 0 {
		t.Fatal("no soft-state to refresh")
	}
	sys.Env().Clock().Advance(90)
	if n := sys.Store().RefreshAll(); n != total {
		t.Fatalf("refreshed %d of %d entries", n, total)
	}
	if got, want := sys.Env().Messages("refresh-batch"), int64(len(sys.Members())); got != want {
		t.Fatalf("refresh-batch messages = %d, want %d (one per member)", got, want)
	}
	sys.Env().Clock().Advance(90)
	if dropped := sys.Store().SweepExpired(); dropped != 0 {
		t.Fatalf("sweep dropped %d refreshed entries", dropped)
	}
}

func TestNewValidation(t *testing.T) {
	net := WithNetwork(testNet())
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"no network", nil},
		{"overlay size 1", []Option{net, WithOverlaySize(1)}},
		{"overlay larger than the stub hosts", []Option{net, WithOverlaySize(testNet().Len())}},
		{"probe budget 0", []Option{net, WithProbeBudget(0)}},
		{"max return 0", []Option{net, WithMaxReturn(0)}},
		{"negative condense depth", []Option{net, WithCondenseDepth(-1)}},
		{"condense depth 33", []Option{net, WithCondenseDepth(33)}},
		{"no landmarks", []Option{net, WithLandmarks(0)}},
		{"zero TTL", []Option{net, WithSoftStateTTL(0)}},
		{"confirm threshold 0", []Option{net, WithConfirmThreshold(0)}},
	} {
		if _, err := New(tc.opts...); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestNewAssemblesEverything(t *testing.T) {
	sys := newSystem(t)
	st := sys.Stats()
	if st.Members != 96 || st.Landmarks != 6 || st.Hosts == 0 {
		t.Fatalf("stats wrong: %+v", st)
	}
	if st.TotalEntries == 0 {
		t.Fatal("no soft-state published")
	}
	if sys.Net() == nil || sys.Env() == nil || sys.Overlay() == nil ||
		sys.Store() == nil || sys.Bus() == nil || sys.Space() == nil {
		t.Fatal("nil accessor")
	}
	if len(sys.Members()) != 96 {
		t.Fatal("Members() wrong")
	}
}

func TestDeterminism(t *testing.T) {
	a := newSystem(t)
	b := newSystem(t)
	ma := a.Members()
	mb := b.Members()
	// Same seed: same member hosts (set-wise).
	setA := map[int32]bool{}
	for _, m := range ma {
		setA[int32(m.Host)] = true
	}
	for _, m := range mb {
		if !setA[int32(m.Host)] {
			t.Fatal("different member hosts across identical systems")
		}
	}
}

func TestRouteTo(t *testing.T) {
	sys := newSystem(t)
	members := sys.Members()
	rng := sys.RNG("test")
	for i := 0; i < 50; i++ {
		src := members[rng.Intn(len(members))]
		dst := members[rng.Intn(len(members))]
		r, err := sys.RouteTo(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		if r.Path[0] != src || r.Path[len(r.Path)-1] != dst {
			t.Fatal("route endpoints wrong")
		}
		if src.Host != dst.Host && r.Stretch < 1 {
			t.Fatalf("stretch %v below 1", r.Stretch)
		}
		if r.Hops != len(r.Path)-1 {
			t.Fatal("hop count inconsistent")
		}
	}
	if _, err := sys.RouteTo(nil, members[0]); err == nil {
		t.Fatal("nil src accepted")
	}
}

func TestLookup(t *testing.T) {
	sys := newSystem(t)
	p := can.Point{0.3, 0.7}
	m := sys.Lookup(p)
	if m == nil || !m.Contains(p) {
		t.Fatal("lookup broken")
	}
}

func TestNearestMember(t *testing.T) {
	sys := newSystem(t)
	members := sys.Members()
	hosts := make([]int32, 0, len(members))
	for _, m := range members {
		hosts = append(hosts, int32(m.Host))
	}
	res, err := sys.NearestMember(members[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Member == nil || res.Member == members[0] {
		t.Fatal("bad nearest member")
	}
	if res.Probes == 0 || math.IsInf(res.RTTMs, 1) {
		t.Fatal("no probing happened")
	}
	// Sanity: the result should be closer than the median member.
	q := members[0].Host
	var rtts []float64
	for _, m := range members[1:] {
		rtts = append(rtts, sys.Net().RTT(q, m.Host))
	}
	worse := 0
	for _, r := range rtts {
		if r > res.RTTMs {
			worse++
		}
	}
	if worse < len(rtts)/2 {
		t.Fatalf("nearest result is worse than median: beat only %d/%d", worse, len(rtts))
	}
	if _, err := sys.NearestMember(nil); err == nil {
		t.Fatal("nil member accepted")
	}

	// A member sits in several regions' maps, but a query probes its host
	// once.
	for _, m := range members {
		probed := probeLog{}
		sys.Env().SetPerturbation(probed)
		if _, err := sys.NearestMember(m); err != nil {
			t.Fatal(err)
		}
		if len(probed) == 0 {
			t.Fatalf("query from %v probed nothing", m)
		}
		for pair, n := range probed {
			if n > 1 {
				t.Fatalf("query from %v probed host %d %d times", m, pair[1], n)
			}
		}
	}
	sys.Env().SetPerturbation(nil)
}

// probeLog is an identity netsim.Perturbation that counts the latency
// reads per host pair. A nearest-member query reads latency only through
// its RTT probes, so the log is the query's probe sequence.
type probeLog map[[2]topology.NodeID]int

func (l probeLog) Apply(a, b topology.NodeID, base float64, _ netsim.Time) float64 {
	l[[2]topology.NodeID{a, b}]++
	return base
}

func TestNearestToHost(t *testing.T) {
	sys := newSystem(t)
	memberHosts := map[int32]bool{}
	for _, m := range sys.Members() {
		memberHosts[int32(m.Host)] = true
	}
	// Pick a stub host outside the overlay.
	var outside int32 = -1
	for _, h := range sys.Net().StubHosts() {
		if !memberHosts[int32(h)] {
			outside = int32(h)
			break
		}
	}
	if outside < 0 {
		t.Skip("no outside host")
	}
	res, err := sys.NearestToHost(sys.Net().StubHosts()[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Member == nil {
		t.Fatal("no member found")
	}
}

func TestOnCloserCandidateAndReselect(t *testing.T) {
	sys := newSystem(t)
	members := sys.Members()
	m := members[0]
	fired := 0
	sub, err := sys.OnCloserCandidate(m, 0, func(pubsub.Notification) { fired++ })
	if err != nil {
		t.Fatal(err)
	}
	// Re-publishing a node in m's region with currentBest=+Inf fires.
	region := m.Path().Prefix(sys.Overlay().DigitLen())
	for _, other := range members[1:] {
		if other.Path().HasPrefix(region) {
			if err := sys.Store().PublishMeasured(other); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if fired == 0 {
		t.Fatal("closer-candidate subscription never fired")
	}
	sub.SetCurrentBest(0)
	sys.Reselect(m) // must not panic; next route rebuilds entries
	if _, err := sys.RouteTo(m, members[1]); err != nil {
		t.Fatal(err)
	}
}

func TestOnOverloadAndPublishLoad(t *testing.T) {
	sys := newSystem(t)
	members := sys.Members()
	watcher := members[0]
	region := watcher.Path().Prefix(sys.Overlay().DigitLen())
	var watched *can.Member
	for _, m := range members[1:] {
		if m.Path().HasPrefix(region) {
			watched = m
			break
		}
	}
	if watched == nil {
		t.Skip("no watchable member in region")
	}
	if err := sys.Store().PublishMeasured(watched, softstate.WithCapacity(8)); err != nil {
		t.Fatal(err)
	}
	fired := 0
	if _, err := sys.OnOverload(watcher, watched, 0.75, func(pubsub.Notification) { fired++ }); err != nil {
		t.Fatal(err)
	}
	sys.PublishLoad(watched, 2) // 25%
	if fired != 0 {
		t.Fatal("fired below threshold")
	}
	sys.PublishLoad(watched, 7) // 87.5%
	if fired == 0 {
		t.Fatal("did not fire above threshold")
	}
}

func TestStatsProbeCounting(t *testing.T) {
	sys := newSystem(t)
	before := sys.Stats().Probes
	if _, err := sys.NearestMember(sys.Members()[0]); err != nil {
		t.Fatal(err)
	}
	if sys.Stats().Probes <= before {
		t.Fatal("nearest query did not meter probes")
	}
}

// TestStatsMessageTotals: Stats reads the env's meters and the store's
// entry count, so it agrees with them at any point, also after the env's
// meters are reset mid-run.
func TestStatsMessageTotals(t *testing.T) {
	sys := newSystem(t)
	members := sys.Members()
	env := sys.Env()
	agree := func(when string) Stats {
		t.Helper()
		st := sys.Stats()
		if !maps.Equal(st.Messages, env.MessageTotals()) {
			t.Fatalf("%s: Stats.Messages = %v, env says %v", when, st.Messages, env.MessageTotals())
		}
		if st.Probes != env.Probes() {
			t.Fatalf("%s: Stats.Probes = %d, env says %d", when, st.Probes, env.Probes())
		}
		if st.TotalEntries != sys.Store().TotalEntries() {
			t.Fatalf("%s: Stats.TotalEntries = %d, store says %d", when, st.TotalEntries, sys.Store().TotalEntries())
		}
		if st.Hosts != sys.Net().Len() || st.Members != len(members) || st.Landmarks != 6 {
			t.Fatalf("%s: Stats sizes = %+v", when, st)
		}
		return st
	}

	if _, err := sys.NearestMember(members[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RouteTo(members[0], members[1]); err != nil {
		t.Fatal(err)
	}
	st := agree("after a query and a route")
	if st.Messages["publish"] == 0 || st.Messages["lookup"] == 0 {
		t.Fatalf("expected publish and lookup traffic: %v", st.Messages)
	}

	// Experiments reset the env's meters between phases; Stats must follow.
	env.ResetProbes()
	env.ResetMessages()
	res, err := sys.NearestMember(members[2])
	if err != nil {
		t.Fatal(err)
	}
	if st := agree("after an env reset"); st.Probes != int64(res.Probes) {
		t.Fatalf("Stats.Probes = %d after the reset, the one query spent %d", st.Probes, res.Probes)
	}
}

func TestTopRegionsCoverSpace(t *testing.T) {
	sys := newSystem(t)
	regions := sys.topRegions()
	if len(regions) != 4 { // 2^dim with dim=2
		t.Fatalf("top regions = %d", len(regions))
	}
	total := 0
	for _, r := range regions {
		total += len(sys.Overlay().RegionMembers(r))
	}
	if total != len(sys.Members()) {
		t.Fatalf("top regions cover %d of %d members", total, len(sys.Members()))
	}
}
