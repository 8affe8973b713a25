package softstate

import (
	"testing"

	"gsso/internal/can"
)

func TestEventSinkFanout(t *testing.T) {
	h := newHarness(t, 16, DefaultConfig())
	m := h.overlay.CAN().Members()[0]
	var order []string
	h.store.AddEventSink(func(Event) { order = append(order, "a") })
	h.store.AddEventSink(func(Event) { order = append(order, "b") })
	if err := h.store.PublishMeasured(m); err != nil {
		t.Fatal(err)
	}
	if len(order) == 0 || len(order)%2 != 0 {
		t.Fatalf("sink fanout uneven: %v", order)
	}
	// Every event reaches the sinks in the order they were added.
	for i := 0; i < len(order); i += 2 {
		if order[i] != "a" || order[i+1] != "b" {
			t.Fatalf("sinks ran out of order: %v", order)
		}
	}
}

func TestPublishFilter(t *testing.T) {
	h := newHarness(t, 32, DefaultConfig())
	m := h.overlay.CAN().Members()[3]
	d := h.overlay.DigitLen()
	if m.Depth() < 2*d {
		t.Skip("member too shallow to distinguish regions")
	}

	// Reject everything: nothing lands, drops are metered.
	h.store.SetPublishFilter(func(can.Path, uint64) bool { return false })
	if err := h.store.PublishMeasured(m); err != nil {
		t.Fatal(err)
	}
	if n := h.store.TotalEntries(); n != 0 {
		t.Fatalf("filtered publish stored %d entries", n)
	}
	if h.env.Messages("publish-dropped") == 0 {
		t.Fatal("dropped publishes not metered")
	}

	// Allow only the top-level region.
	h.store.SetPublishFilter(func(region can.Path, _ uint64) bool { return region.Len == d })
	if err := h.store.PublishMeasured(m); err != nil {
		t.Fatal(err)
	}
	if len(h.store.RegionEntries(m.Path().Prefix(d))) != 1 {
		t.Fatal("allowed region empty")
	}
	if len(h.store.RegionEntries(m.Path().Prefix(2*d))) != 0 {
		t.Fatal("filtered region populated")
	}

	// Clear the filter: the full set of enclosing regions fills in.
	h.store.SetPublishFilter(nil)
	if err := h.store.PublishMeasured(m); err != nil {
		t.Fatal(err)
	}
	if h.store.TotalEntries() != m.Depth()/d {
		t.Fatalf("TotalEntries = %d, want %d", h.store.TotalEntries(), m.Depth()/d)
	}
}

func TestPurge(t *testing.T) {
	h := newHarness(t, 32, DefaultConfig())
	if err := h.store.PublishAll(nil); err != nil {
		t.Fatal(err)
	}
	m := h.overlay.CAN().Members()[5]
	want := m.Depth() / h.overlay.DigitLen()
	before := h.store.TotalEntries()
	purged := h.store.Purge(m)
	if purged != want {
		t.Fatalf("Purge = %d, want %d", purged, want)
	}
	if h.store.TotalEntries() != before-purged {
		t.Fatal("TotalEntries did not shrink by the purge")
	}
	if h.store.Vector(m) != nil {
		t.Fatal("vector survived purge")
	}
	if h.env.Messages("repair") != int64(purged) {
		t.Fatalf("repair messages = %d, want %d", h.env.Messages("repair"), purged)
	}
	if h.store.Purge(m) != 0 {
		t.Fatal("second purge found entries")
	}
}

func TestOwnersOf(t *testing.T) {
	h := newHarness(t, 48, DefaultConfig())
	if err := h.store.PublishAll(nil); err != nil {
		t.Fatal(err)
	}
	m := h.overlay.CAN().Members()[0]
	num, ok := h.store.Number(m)
	if !ok {
		t.Fatal("no number")
	}
	region := m.Path().Prefix(h.overlay.DigitLen())
	under := h.overlay.CAN().MembersUnder(region)

	owners := h.store.OwnersOf(region, num, 1)
	if len(owners) != 1 || owners[0] != h.store.OwnerOf(region, num) {
		t.Fatalf("k=1 owners = %v", owners)
	}
	k := 3
	if k > len(under) {
		k = len(under)
	}
	owners = h.store.OwnersOf(region, num, k)
	if len(owners) != k || owners[0] != h.store.OwnerOf(region, num) {
		t.Fatalf("k=%d returned %d owners", k, len(owners))
	}
	seen := map[*can.Member]bool{}
	for _, o := range owners {
		if seen[o] {
			t.Fatal("duplicate owner in chain")
		}
		seen[o] = true
		found := false
		for _, u := range under {
			if u == o {
				found = true
				break
			}
		}
		if !found {
			t.Fatal("owner outside the region")
		}
	}
	// k larger than the region population is capped, not wrapped into
	// duplicates.
	owners = h.store.OwnersOf(region, num, len(under)+5)
	if len(owners) != len(under) {
		t.Fatalf("oversized k returned %d owners, want %d", len(owners), len(under))
	}
	if h.store.OwnersOf(region, num, 0) != nil {
		t.Fatal("k=0 returned owners")
	}
}

func TestLoseShards(t *testing.T) {
	h := newHarness(t, 32, DefaultConfig())
	if err := h.store.PublishAll(nil); err != nil {
		t.Fatal(err)
	}
	var events int
	h.store.AddEventSink(func(Event) { events++ })

	// Nobody down: nothing lost.
	if lost := h.store.LoseShards(func(*can.Member) bool { return false }, 1); lost != 0 {
		t.Fatalf("lost %d with nobody down", lost)
	}
	// Everybody down at k=1: the whole store dies, silently (no events —
	// the holders died with the data).
	before := h.store.TotalEntries()
	lost := h.store.LoseShards(func(*can.Member) bool { return true }, 1)
	if lost != before || h.store.TotalEntries() != 0 {
		t.Fatalf("lost %d of %d, %d remain", lost, before, h.store.TotalEntries())
	}
	if events != 0 {
		t.Fatalf("shard loss emitted %d events", events)
	}
}

func TestLoseShardsReplicationSurvives(t *testing.T) {
	h := newHarness(t, 32, DefaultConfig())
	if err := h.store.PublishAll(nil); err != nil {
		t.Fatal(err)
	}
	// Crash one member. At k=1 every spot it owned is lost; at k=2 only
	// the spots where it was the sole member under the region (its own
	// deepest zone) can die, so the loss must be strictly smaller.
	h2 := newHarness(t, 32, DefaultConfig())
	if err := h2.store.PublishAll(nil); err != nil {
		t.Fatal(err)
	}
	down := h.overlay.CAN().Members()[7]
	isDown := func(m *can.Member) bool { return m == down }
	lost1 := h.store.LoseShards(isDown, 1)
	if lost1 == 0 {
		t.Fatal("k=1 lost nothing; expected the crashed owner's spots to die")
	}
	down2 := h2.overlay.CAN().Members()[7]
	lost2 := h2.store.LoseShards(func(m *can.Member) bool { return m == down2 }, 2)
	if lost2 >= lost1 {
		t.Fatalf("k=2 lost %d entries, k=1 lost %d; replication gave no protection", lost2, lost1)
	}
}
