package experiment

import (
	"os"
	"testing"
)

// TestChurnReconvergence is the soak gate (`make soak`): under every
// seeded fault plan, replicated refresh (k=2) must pull record recall
// back above 99% within three virtual refresh intervals of the last
// churn wave, and the whole run must be bit-for-bit deterministic.
// Set SOAK=1 for the full-scale overlay.
func TestChurnReconvergence(t *testing.T) {
	sc := Quick(1)
	if os.Getenv("SOAK") != "" {
		sc = Full(1)
	}
	net, err := buildNet(TSKLarge, LatGTITM, sc)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := newStack(net, sc, "extchurn", "", sc.OverlayN/2, sc.Landmarks)
	if err != nil {
		t.Fatal(err)
	}
	members := sys.Members()

	const k, ticks, maxReconverge = 2, 20, 3
	for _, scen := range churnPlans(stackRNG(sc, "extchurn"), net, members) {
		o, err := runChurnRecall(sys.Store(), members, scen.plan, k, ticks, churnInterval)
		if err != nil {
			t.Fatal(err)
		}
		if o.finalRecall < churnRecallTarget {
			t.Errorf("%s: final recall %.3f, want >= %.2f", scen.name, o.finalRecall, churnRecallTarget)
		}
		if o.reconvergeTicks < 0 || o.reconvergeTicks > maxReconverge {
			t.Errorf("%s: reconverged in %d intervals after the last wave, want 0..%d",
				scen.name, o.reconvergeTicks, maxReconverge)
		}

		// Same plan, same relative clock, same probe sequence (the run
		// rebases both) => identical recall trace.
		again, err := runChurnRecall(sys.Store(), members, scen.plan, k, ticks, churnInterval)
		if err != nil {
			t.Fatal(err)
		}
		if len(again.recalls) != len(o.recalls) {
			t.Fatalf("%s: replay produced %d ticks, want %d", scen.name, len(again.recalls), len(o.recalls))
		}
		for i := range o.recalls {
			if o.recalls[i] != again.recalls[i] {
				t.Errorf("%s: tick %d recall %.4f on replay, want %.4f — fault plan is not deterministic",
					scen.name, i, again.recalls[i], o.recalls[i])
			}
		}
	}
}
