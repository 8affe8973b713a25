package ecan

import (
	"testing"

	"gsso/internal/can"
	"gsso/internal/netsim"
	"gsso/internal/simrand"
)

func TestCachedEntryAndInvalidateEntry(t *testing.T) {
	net := testNet(t)
	o := buildECAN(t, net, 48, RandomSelector{RNG: simrand.New(3)})
	m := o.CAN().Members()[0]
	digit := o.digitOf(m.Path(), 0) ^ 1

	if o.CachedEntry(m, 0, digit) != nil {
		t.Fatal("entry cached before selection")
	}
	e := o.Entry(m, 0, digit)
	if e == nil {
		t.Fatal("no entry selected")
	}
	if got := o.CachedEntry(m, 0, digit); got != e {
		t.Fatalf("CachedEntry = %v, want %v", got, e)
	}
	o.InvalidateEntries(m)
	if o.CachedEntry(m, 0, digit) != nil {
		t.Fatal("entry survived invalidation")
	}
}

func TestSlotAPIsOnUnknownMember(t *testing.T) {
	net := testNet(t)
	o := buildECAN(t, net, 16, RandomSelector{RNG: simrand.New(3)})
	stranger := &can.Member{Host: 9999}
	if o.CachedEntry(stranger, 0, 0) != nil {
		t.Fatal("cached entry for unknown member")
	}
	o.InvalidateEntries(stranger) // must not panic
}

func TestSlotOutOfRange(t *testing.T) {
	net := testNet(t)
	o := buildECAN(t, net, 16, RandomSelector{RNG: simrand.New(3)})
	m := o.CAN().Members()[0]
	o.Node(m) // materialize
	if o.CachedEntry(m, 1000, 0) != nil {
		t.Fatal("out-of-range slot returned entry")
	}
	if o.Entry(m, 1000, 0) != nil {
		t.Fatal("out-of-range Entry returned something")
	}
}

func TestRouteResultLatencySums(t *testing.T) {
	net := testNet(t)
	env := netsim.New(net)
	o := buildECAN(t, net, 32, RandomSelector{RNG: simrand.New(5)})
	members := o.CAN().Members()
	res, err := o.Route(members[0], members[10].ZoneCenter())
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for i := 1; i < len(res.Members); i++ {
		want += env.Latency(res.Members[i-1].Host, res.Members[i].Host)
	}
	if got := res.Latency(env); got != want {
		t.Fatalf("Latency = %v, want %v", got, want)
	}
}

func TestRegionMembersUnknownRegion(t *testing.T) {
	net := testNet(t)
	o := buildECAN(t, net, 16, RandomSelector{RNG: simrand.New(5)})
	// A region whose prefix chain is broken (descends through an internal
	// region with >1 members on the other side) yields nil.
	bogus := can.Path{Bits: ^uint64(0), Len: 40}
	_ = o.RegionMembers(bogus) // must not panic; result may be nil or a covering leaf
}
