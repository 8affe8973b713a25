package experiment

import (
	"fmt"
	"math"

	"gsso/internal/can"
	"gsso/internal/netsim"
	"gsso/internal/simrand"
	"gsso/internal/softstate"
	"gsso/internal/topology"
)

// RunExtChurn measures what the paper asserts but never plots: that
// "transient losses heal on the next refresh". A seeded netsim.FaultPlan
// injects churn waves (and optionally probe loss plus a stub-domain
// partition) while members keep refreshing their soft-state records onto
// the k nearest ring owners of their landmark number. The metric is
// record recall — the fraction of live members whose record is
// retrievable from at least one live owner — tracked per virtual refresh
// interval, with the reconvergence time after the last wave.
//
// Replication is the ReCord/DOAT tradeoff made concrete: k=1 loses every
// record whose single owner crashes (recall dips until those members
// refresh onto the repaired ring), k>=2 rides out any k-1 owner crashes
// at k times the refresh message cost.

// churnRecallTarget is the recall threshold counting as reconverged.
const churnRecallTarget = 0.99

// churnOutcome summarizes one replicated-refresh simulation.
type churnOutcome struct {
	minRecall       float64
	finalRecall     float64
	reconvergeTicks int // refresh intervals after the last wave until recall >= target; -1 = never
	probes          int64
	recalls         []float64 // recall per tick, for plots and assertions
}

// runChurnRecall simulates refresh-driven replicated soft-state under a
// fault plan. Each tick advances the virtual clock one refresh interval;
// every live member then re-stores its record on its k ring owners (each
// store is one metered probe that the plan may drop, sever, or time out),
// a crashed owner loses its shard, and records expire after 3 intervals
// without a successful refresh — the wire layer's ttl = 3*interval rule.
func runChurnRecall(store *softstate.Store, members []*can.Member, plan *netsim.FaultPlan, k, ticks int, interval netsim.Time) (churnOutcome, error) {
	numbers := make([]uint64, len(members))
	var span uint64
	for i, m := range members {
		num, ok := store.Number(m)
		if !ok {
			return churnOutcome{}, fmt.Errorf("experiment: member %d has no landmark number", i)
		}
		numbers[i] = num
		if num+1 > span {
			span = num + 1
		}
	}
	// Owner ring: the wire layer's slot rule, numbers mapped
	// proportionally onto the member list.
	owners := func(num uint64, k int) []int {
		slot := int(num * uint64(len(members)) / span)
		if slot >= len(members) {
			slot = len(members) - 1
		}
		out := make([]int, 0, k)
		for i := 0; i < k; i++ {
			out = append(out, (slot+i)%len(members))
		}
		return out
	}

	// Plans are authored against t=0; rebase onto the shared clock so the
	// schedule fires at the same relative ticks in every run, and rewind
	// the probe counter so the sequence-keyed loss stream replays too.
	env := store.Env()
	start := env.Clock().Now()
	plan = plan.Shifted(start)
	env.SetFaultPlan(plan)
	defer env.SetFaultPlan(nil)
	env.ResetProbes()
	ttl := 3 * interval

	// held[owner][member] is the replica's expiry in virtual time.
	held := make([]map[int]netsim.Time, len(members))
	for i := range held {
		held[i] = make(map[int]netsim.Time)
	}
	lastWaveEnd := netsim.Time(0)
	for _, w := range plan.Churn {
		if w.Until > lastWaveEnd {
			lastWaveEnd = w.Until
		}
	}

	out := churnOutcome{minRecall: 1, reconvergeTicks: -1}
	preProbes := env.Probes()
	for tick := 1; tick <= ticks; tick++ {
		env.Clock().Advance(interval)
		now := env.Clock().Now()

		// A crashed owner loses its in-memory shard.
		for i, m := range members {
			if env.Crashed(m.Host) && len(held[i]) > 0 {
				held[i] = make(map[int]netsim.Time)
			}
		}
		// Refresh: live members re-store their record on their k owners.
		for i, m := range members {
			if env.Crashed(m.Host) {
				continue
			}
			for _, o := range owners(numbers[i], k) {
				env.CountMessages("refresh-store", 1)
				if math.IsInf(env.ProbeRTT(m.Host, members[o].Host), 1) {
					continue // owner crashed, link severed, or store dropped
				}
				held[o][i] = now + ttl
			}
		}
		// Expiry sweep.
		for i := range held {
			for mem, exp := range held[i] {
				if exp < now {
					delete(held[i], mem)
				}
			}
		}
		// Recall over live members.
		live, found := 0, 0
		for i, m := range members {
			if env.Crashed(m.Host) {
				continue
			}
			live++
			for _, o := range owners(numbers[i], k) {
				if env.Crashed(members[o].Host) {
					continue
				}
				if exp, ok := held[o][i]; ok && exp >= now {
					found++
					break
				}
			}
		}
		recall := 1.0
		if live > 0 {
			recall = float64(found) / float64(live)
		}
		out.recalls = append(out.recalls, recall)
		out.finalRecall = recall
		if recall < out.minRecall {
			out.minRecall = recall
		}
		if now >= lastWaveEnd && out.reconvergeTicks < 0 && recall >= churnRecallTarget {
			// Ticks elapsed since the schedule went quiet.
			out.reconvergeTicks = tick - int(float64(lastWaveEnd-start)/float64(interval))
			if out.reconvergeTicks < 0 {
				out.reconvergeTicks = 0
			}
		}
	}
	out.probes = env.Probes() - preProbes
	return out, nil
}

// churnInterval is one virtual refresh interval in ms of virtual time.
const churnInterval = netsim.Time(1000)

// churnPlans builds the experiment's two seeded fault plans over the
// member hosts, drawing the crash waves from rng: churn alone, and churn
// compounded with probe loss and a mid-run stub-domain partition.
func churnPlans(rng *simrand.Source, net *topology.Network, members []*can.Member) []struct {
	name string
	plan *netsim.FaultPlan
} {
	hosts := make([]topology.NodeID, len(members))
	for i, m := range members {
		hosts[i] = m.Host
	}
	mkWaves := func(label string) []netsim.ChurnWave {
		// Three waves, each crashing a fresh 20% of members for three
		// refresh intervals, one quiet interval apart.
		return netsim.CrashWaves(rng.Split(label), hosts, 3,
			2*churnInterval, 4*churnInterval, 3*churnInterval, 0.2)
	}
	return []struct {
		name string
		plan *netsim.FaultPlan
	}{
		{"churn", &netsim.FaultPlan{Seed: 11, Churn: mkWaves("waves")}},
		{"churn+loss+cut", &netsim.FaultPlan{
			Seed:     13,
			LossRate: 0.1,
			Churn:    mkWaves("waves2"),
			Partitions: []netsim.PartitionWindow{
				netsim.BisectByStub(net, 6*churnInterval, 8*churnInterval),
			},
		}},
	}
}

// RunExtChurn is the registry entry point.
func RunExtChurn(sc Scale) ([]*Table, error) {
	net, err := buildNet(TSKLarge, LatGTITM, sc)
	if err != nil {
		return nil, err
	}
	// Deliberately a single unit: every scenario × k cell advances the one
	// shared virtual clock, so the sequence must not be reordered or
	// interleaved by the engine.
	sys, err := newStack(net, sc, "extchurn", "ext-churn", sc.OverlayN/2, sc.Landmarks)
	if err != nil {
		return nil, err
	}
	members := sys.Members()

	t := &Table{
		ID:    "ext-churn",
		Title: "Record recall under injected churn (fault plans, replicated refresh, ttl = 3 intervals)",
		Columns: []string{"fault plan", "replicas k", "min recall", "final recall",
			"intervals to ≥99% after last wave", "refresh probes"},
	}
	const ticks = 20
	for _, scen := range churnPlans(stackRNG(sc, "extchurn"), net, members) {
		for _, k := range []int{1, 2, 3} {
			o, err := runChurnRecall(sys.Store(), members, scen.plan, k, ticks, churnInterval)
			if err != nil {
				return nil, err
			}
			reconv := "never"
			if o.reconvergeTicks >= 0 {
				reconv = fmt.Sprintf("%d", o.reconvergeTicks)
			}
			t.AddRowf(scen.name, k, o.minRecall, o.finalRecall, reconv, o.probes)
		}
	}
	t.Note("recall = live members whose record is retrievable from a live owner; waves crash 20%% of members each")
	t.Note("k=1 loses a crashed owner's whole shard until re-refresh; k>=2 rides out single-owner crashes at k× message cost")
	return []*Table{t}, nil
}
