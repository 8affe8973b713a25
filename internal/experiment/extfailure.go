package experiment

import (
	"fmt"
	"math"

	"gsso/internal/can"
	"gsso/internal/ecan"
	"gsso/internal/experiment/engine"
	"gsso/internal/softstate"
)

// RunExtFailure implements §5.2's maintenance-options paragraph for
// departures: "In the most reactive case, departed nodes are deleted from
// the global state only when they are selected as routing neighbor
// replacements and later found un-reachable. Alternatively, each owner of
// the map information can periodically poll the liveliness of the nodes.
// The most proactive measure is to update the map when a node is about to
// depart."
//
// A fraction of members crash; each policy then pays differently to get
// the dead soft-state out of the way: reactive wastes selection probes on
// timeouts until the dead entries happen to be probed; polling spends
// liveness probes proportional to the whole map; proactive pays one
// withdrawal per departure. Selection quality afterwards is the same —
// the difference is purely cost and staleness, which is the paper's point.
func RunExtFailure(sc Scale) ([]*Table, error) {
	net, err := buildNet(TSKLarge, LatGTITM, sc)
	if err != nil {
		return nil, err
	}
	const crashFraction = 0.2
	type outcome struct {
		deadEncounters int64 // probes spent on dead hosts during selection
		livenessProbes int64 // owner polling cost
		withdrawals    int64 // proactive departure messages
		staleEntries   int   // dead entries still in maps after the round
		stretch        float64
	}

	run := func(policy string) (outcome, error) {
		sys, err := newStack(net, sc, "extfailure", "ext-failure", sc.OverlayN/2, sc.Landmarks)
		if err != nil {
			return outcome{}, err
		}
		overlay, env, store, rng := sys.Overlay(), sys.Env(), sys.Store(), stackRNG(sc, "extfailure")
		members := sys.Members()
		sel, err := softstate.NewSelector(store, sc.RTTs,
			ecan.RandomSelector{RNG: rng.Split("fb")})
		if err != nil {
			return outcome{}, err
		}
		overlay.SetSelector(sel)
		pairs := samplePairs(overlay, sc.QueriesFor(sc.OverlayN/2), rng.Split("pairs"))

		// Warm the tables, then crash a deterministic member subset.
		// (Crashed members keep their zones: the overlay repair protocol is
		// can.Depart; here we study only the soft-state staleness, so the
		// dead stay as silent forwarders — their zones still route.)
		if _, err := meanStretch(overlay, env, pairs); err != nil {
			return outcome{}, err
		}
		crashRNG := rng.Split("crash")
		var crashed []*can.Member
		for _, idx := range crashRNG.Sample(len(members), int(crashFraction*float64(len(members)))) {
			crashed = append(crashed, members[idx])
		}
		deadHosts := make(map[*can.Member]bool, len(crashed))
		for _, m := range crashed {
			deadHosts[m] = true
			env.SetDown(m.Host, true)
		}
		out := outcome{}

		switch policy {
		case "reactive":
			// Nothing up front; timeouts during re-selection purge lazily.
		case "poll":
			// Every owner probes the liveness of every entry it hosts.
			pre := env.Probes()
			for _, m := range members {
				// The store models all shards; sweep by probing each
				// published member once from its primary owner.
				if store.Vector(m) == nil {
					continue
				}
				num, _ := store.Number(m)
				owner := store.OwnerOf(m.Path().Prefix(overlay.DigitLen()), num)
				if owner == nil || env.IsDown(owner.Host) {
					continue // a crashed owner polls nothing; its shard is gone with it
				}
				if rtt := env.ProbeRTT(owner.Host, m.Host); math.IsInf(rtt, 1) {
					store.ReportUnreachable(m)
				}
			}
			out.livenessProbes = env.Probes() - pre
		case "proactive":
			// Departing nodes withdraw their own state.
			for _, m := range crashed {
				store.Remove(m)
				out.withdrawals++
			}
		}

		// Force re-selection and measure: dead entries surface as probe
		// timeouts (reactive) or are already gone (poll/proactive).
		for _, m := range members {
			overlay.InvalidateEntries(m)
		}
		deadBefore := env.Messages("reactive-delete")
		s, err := meanStretch(overlay, env, pairs)
		if err != nil {
			return outcome{}, err
		}
		out.stretch = s
		out.deadEncounters = env.Messages("reactive-delete") - deadBefore

		// Residual staleness: dead entries still present in any map.
		for _, m := range crashed {
			if store.Vector(m) != nil {
				out.staleEntries++
			}
		}
		return out, nil
	}

	t := &Table{
		ID: "ext-failure",
		Title: fmt.Sprintf("Soft-state repair after crashes (§5.2 departure options, %d%% of members crash)",
			int(crashFraction*100)),
		Columns: []string{"policy", "stretch after repair", "dead entries hit in selection",
			"liveness probes", "withdrawals", "members still stale"},
	}
	// One unit per policy: each run owns a private stack built from the
	// same "extfailure" label, so all three see the identical crash set.
	policies := []string{"reactive", "poll", "proactive"}
	outcomes, err := engine.Map(len(policies), func(i int) (outcome, error) {
		return run(policies[i])
	})
	if err != nil {
		return nil, err
	}
	for i, policy := range policies {
		o := outcomes[i]
		t.AddRowf(policy, o.stretch, o.deadEncounters, o.livenessProbes, o.withdrawals, o.staleEntries)
	}
	t.Note("reactive = purge on probe timeout; poll = owners probe entry liveness; proactive = departing nodes withdraw")
	t.Note("paper §5.2: the global state 'can be lazily maintained' — all three converge, at different costs")
	return []*Table{t}, nil
}
