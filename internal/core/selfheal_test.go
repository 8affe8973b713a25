package core

import (
	"testing"

	"gsso/internal/can"
	"gsso/internal/pubsub"
)

// healSystem builds a system with a short TTL so expiry-driven suspicion
// fires within a couple of sweep intervals.
func healSystem(t testing.TB) *System {
	t.Helper()
	return newSystem(t, WithSoftStateTTL(100), WithConfirmThreshold(2))
}

// refreshLive republishes every live member so the next sweep expires
// only the entries of crashed hosts.
func refreshLive(t testing.TB, sys *System) {
	t.Helper()
	for _, m := range sys.Members() {
		if sys.Env().Crashed(m.Host) {
			continue
		}
		if err := sys.Store().PublishMeasured(m); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCrashSuspectRepair(t *testing.T) {
	sys := healSystem(t)
	victim := sys.Members()[7]
	if err := sys.CrashMember(victim); err != nil {
		t.Fatal(err)
	}
	if !sys.Overlay().CAN().IsMember(victim) {
		t.Fatal("crash must not remove the member; that is the detector's job")
	}

	// Let the victim's entries age out while the rest of the overlay
	// keeps refreshing: the sweep expires only the dead member's state.
	sys.Env().Clock().Advance(101)
	refreshLive(t, sys)
	if sys.Store().SweepExpired() == 0 {
		t.Fatal("nothing expired")
	}
	suspects := sys.Suspects()
	if len(suspects) != 1 || suspects[0] != victim {
		t.Fatalf("suspects = %v, want exactly the crashed member", suspects)
	}

	rep, rounds := sys.ConvergeRepairs(8)
	if rep.Confirmed != 1 || rep.Takeovers != 1 {
		t.Fatalf("report = %+v, want one confirmed takeover", rep)
	}
	if rounds < 2 {
		t.Fatalf("rounds = %d; convergence needs a final empty round", rounds)
	}
	if sys.Overlay().CAN().IsMember(victim) {
		t.Fatal("victim still holds a zone after repair")
	}
	if err := sys.Overlay().CAN().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if sys.Store().Vector(victim) != nil {
		t.Fatal("victim's vector survived the purge")
	}
	if len(sys.Suspects()) != 0 {
		t.Fatalf("suspicion list not empty: %v", sys.Suspects())
	}

	// The repaired overlay still answers queries.
	ms := sys.Members()
	if _, err := sys.RouteTo(ms[0], ms[len(ms)-1]); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.NearestMember(ms[3]); err != nil {
		t.Fatal(err)
	}
}

func TestCascadingCrashesConverge(t *testing.T) {
	sys := healSystem(t)
	rng := sys.RNG("crash")
	members := sys.Members()
	crashed := map[*can.Member]bool{}
	for _, i := range rng.Sample(len(members), len(members)/4) {
		crashed[members[i]] = true
		if err := sys.CrashMember(members[i]); err != nil {
			t.Fatal(err)
		}
	}

	// A few sweep cycles: repairs may hand zones to other crashed
	// members, whose entries then expire and confirm in later rounds.
	for tick := 0; tick < 4; tick++ {
		sys.Env().Clock().Advance(101)
		refreshLive(t, sys)
		sys.Store().SweepExpired()
		sys.ConvergeRepairs(8)
	}
	for m := range crashed {
		if sys.Overlay().CAN().IsMember(m) {
			t.Fatal("crashed member still holds a zone after convergence")
		}
	}
	if err := sys.Overlay().CAN().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got, want := len(sys.Members()), len(members)-len(crashed); got != want {
		t.Fatalf("survivor count = %d, want %d", got, want)
	}
	st := sys.Stats()
	if st.Members != len(sys.Members()) {
		t.Fatalf("stats gauge %d disagrees with membership %d", st.Members, len(sys.Members()))
	}
}

func TestFalsePositiveAcquittal(t *testing.T) {
	sys := healSystem(t)
	live := sys.Members()[5]
	// Pile on signals well past any threshold; the confirmation probe
	// must prove the member alive and acquit it.
	for i := 0; i < 10; i++ {
		sys.SuspectMember(live)
	}
	if len(sys.Suspects()) != 1 {
		t.Fatalf("suspects = %v", sys.Suspects())
	}
	rep := sys.HealStep()
	if rep.FalsePositives != 1 || rep.Confirmed != 0 || rep.Takeovers != 0 {
		t.Fatalf("report = %+v, want one acquittal and no repair", rep)
	}
	if !sys.Overlay().CAN().IsMember(live) {
		t.Fatal("live member was removed")
	}
	if len(sys.Suspects()) != 0 {
		t.Fatalf("acquitted member still suspected: %v", sys.Suspects())
	}

	// Suspicion of non-members and nil is ignored outright.
	sys.SuspectMember(nil)
	sys.SuspectMember(&can.Member{Host: 99999})
	if len(sys.Suspects()) != 0 {
		t.Fatalf("bogus suspicions recorded: %v", sys.Suspects())
	}
}

// TestPublishAcquitsSuspect pins the refresh path of the detector: a
// suspected member that publishes again is proven alive without a probe.
func TestPublishAcquitsSuspect(t *testing.T) {
	sys := healSystem(t)
	m := sys.Members()[2]
	sys.SuspectMember(m)
	if len(sys.Suspects()) != 1 {
		t.Fatal("suspicion not recorded")
	}
	if err := sys.Store().PublishMeasured(m); err != nil {
		t.Fatal(err)
	}
	if len(sys.Suspects()) != 0 {
		t.Fatal("republish did not acquit the suspect")
	}
	// Acquitted without a probe: the next heal round has nothing to do.
	if rep := sys.HealStep(); rep != (HealReport{}) {
		t.Fatalf("heal round after the acquittal = %+v, want nothing", rep)
	}
}

// TestResuspectListedOnce: a suspect acquitted by a republish and then
// suspected again is on the list once, and one confirmation probe
// acquits it once.
func TestResuspectListedOnce(t *testing.T) {
	sys := healSystem(t)
	m := sys.Members()[2]
	sys.SuspectMember(m)
	if err := sys.Store().PublishMeasured(m); err != nil {
		t.Fatal(err)
	}
	sys.SuspectMember(m)
	if got := sys.Suspects(); len(got) != 1 || got[0] != m {
		t.Fatalf("suspects = %v, want just %v", got, m)
	}
	sys.SuspectMember(m) // ripe: the threshold is at most 2
	if rep := sys.HealStep(); rep.FalsePositives != 1 || rep.Confirmed != 0 {
		t.Fatalf("report = %+v, want one acquittal", rep)
	}
	if len(sys.Suspects()) != 0 {
		t.Fatalf("suspects after the acquittal = %v", sys.Suspects())
	}
}

// TestDepartDropsSubscriptions is the leak regression: a graceful
// departure must cancel the member's subscriptions and any watchers
// aimed at it, and clear its suspicion without a false-positive count.
func TestDepartDropsSubscriptions(t *testing.T) {
	sys := newSystem(t)
	members := sys.Members()
	leaver := members[4]
	region := leaver.Path().Prefix(sys.Overlay().DigitLen())
	if err := sys.Store().PublishMeasured(leaver); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.OnCloserCandidate(leaver, 0, func(pubsub.Notification) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.OnOverload(members[5], leaver, 0.9, func(pubsub.Notification) {}); err != nil {
		t.Fatal(err)
	}
	if sys.Bus().SubscriptionCount(region) != 2 {
		t.Fatalf("expected both subscriptions on %v", region)
	}
	sys.SuspectMember(leaver)

	if err := sys.DepartMember(leaver); err != nil {
		t.Fatal(err)
	}
	if n := sys.Bus().SubscriptionCount(region); n != 0 {
		t.Fatalf("%d subscriptions leaked past departure", n)
	}
	if len(sys.Suspects()) != 0 {
		t.Fatal("departed member still suspected")
	}
	// The suspicion is dropped, not judged: no heal round probes or
	// acquits the departed member.
	if rep := sys.HealStep(); rep != (HealReport{}) {
		t.Fatalf("heal round after the departure = %+v, want nothing", rep)
	}
	if err := sys.Overlay().CAN().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWholeNeighborhoodDead pins confirmDown's fallback: when every CAN
// neighbor of a suspect is itself crashed, the suspicion stands
// confirmed so cascading failures still repair.
func TestWholeNeighborhoodDead(t *testing.T) {
	sys := healSystem(t)
	victim := sys.Members()[0]
	if err := sys.CrashMember(victim); err != nil {
		t.Fatal(err)
	}
	for _, nb := range victim.Neighbors() {
		if !sys.Env().Crashed(nb.Host) {
			if err := sys.CrashMember(nb); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 3; i++ {
		sys.SuspectMember(victim)
	}
	rep := sys.HealStep()
	if rep.Confirmed != 1 || rep.Takeovers != 1 {
		t.Fatalf("report = %+v, want the dead-neighborhood suspect confirmed", rep)
	}
	// The probe-driven path repairs before the entries expire, so the
	// purge finds the dead member's orphaned soft-state.
	if rep.PurgedEntries == 0 {
		t.Fatal("no orphaned entries purged")
	}
	if sys.Overlay().CAN().IsMember(victim) {
		t.Fatal("victim survived")
	}
	if err := sys.Overlay().CAN().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
