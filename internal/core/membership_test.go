package core

import (
	"testing"

	"gsso/internal/topology"
)

func TestJoinHost(t *testing.T) {
	sys := newSystem(t)
	before := len(sys.Members())
	spare := spareHosts(sys, 1)
	if len(spare) == 0 {
		t.Skip("no spare host")
	}
	newcomer := spare[0]
	m, nearest, err := sys.JoinHost(newcomer)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Members()) != before+1 {
		t.Fatalf("member count %d, want %d", len(sys.Members()), before+1)
	}
	if m.Host != newcomer {
		t.Fatal("member on wrong host")
	}
	if nearest.Member == nil {
		t.Fatal("join did not discover a nearest neighbor")
	}
	// The newcomer published: its vector is known and it is routable.
	if sys.Store().Vector(m) == nil {
		t.Fatal("newcomer unpublished")
	}
	r, err := sys.RouteTo(sys.Members()[0], m)
	if err != nil {
		t.Fatal(err)
	}
	if r.Path[len(r.Path)-1] != m {
		t.Fatal("route to newcomer failed")
	}
	// Overlay invariants survived the join.
	if err := sys.Overlay().CAN().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDepartMember(t *testing.T) {
	sys := newSystem(t)
	members := sys.Members()
	before := len(members)
	victim := members[3]
	if err := sys.DepartMember(victim); err != nil {
		t.Fatal(err)
	}
	if len(sys.Members()) != before-1 {
		t.Fatal("member not removed")
	}
	if sys.Store().Vector(victim) != nil {
		t.Fatal("soft-state not withdrawn")
	}
	if err := sys.Overlay().CAN().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Routing still works across the survivors.
	survivors := sys.Members()
	r, err := sys.RouteTo(survivors[0], survivors[len(survivors)-1])
	if err != nil {
		t.Fatal(err)
	}
	if r.Hops < 0 {
		t.Fatal("bad route")
	}
	if err := sys.DepartMember(nil); err == nil {
		t.Fatal("nil member departed")
	}
}

func TestJoinDepartChurn(t *testing.T) {
	sys := newSystem(t)
	rng := sys.RNG("churn")
	for i, h := range spareHosts(sys, 8) {
		if _, _, err := sys.JoinHost(h); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		members := sys.Members()
		if err := sys.DepartMember(members[rng.Intn(len(members))]); err != nil {
			t.Fatalf("depart %d: %v", i, err)
		}
	}
	if err := sys.Overlay().CAN().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// End-to-end still healthy.
	members := sys.Members()
	if _, err := sys.RouteTo(members[0], members[len(members)/2]); err != nil {
		t.Fatal(err)
	}
}

// spareHosts returns up to n stub hosts that hold no member.
func spareHosts(sys *System, n int) []topology.NodeID {
	used := map[topology.NodeID]bool{}
	for _, m := range sys.Members() {
		used[m.Host] = true
	}
	var out []topology.NodeID
	for _, h := range sys.Net().StubHosts() {
		if len(out) == n {
			break
		}
		if !used[h] {
			out = append(out, h)
		}
	}
	return out
}
