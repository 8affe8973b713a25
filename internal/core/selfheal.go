// Self-healing membership: the failure detector and the crash-repair
// pipeline (suspicion → confirmation → takeover → dependent-state
// repair).
//
// The paper's §5.2 gives two failure signals and this file uses both:
// soft-state entry expiry is the simulated-time suspicion source (a
// member that stops refreshing eventually expires out of every region
// map, one event per map), and timed-out probes — a candidate returned
// by a map lookup that does not answer — are the reactive source.
// SuspectMember is exported so an embedding program can report evidence
// of its own; no live node feeds it today (the wire layer's circuit
// breakers stay inside the wire client). Signals only accumulate
// suspicion; nothing is
// removed until a HealStep confirms the crash with a probe from a live
// CAN neighbor and repairs the overlay without the dead node's
// cooperation.
package core

import (
	"errors"
	"math"
	"sort"

	"gsso/internal/can"
	"gsso/internal/softstate"
)

// observeStoreEvent is the detector's soft-state sink, installed by New
// alongside the pub/sub bus: expiry raises suspicion, a publish or
// refresh proves the member alive and acquits it.
func (s *System) observeStoreEvent(ev softstate.Event) {
	if ev.Entry == nil {
		return
	}
	switch ev.Kind {
	case softstate.EventExpired:
		s.SuspectMember(ev.Entry.Member)
	case softstate.EventPublished, softstate.EventRefreshed:
		delete(s.suspects, ev.Entry.Member)
	}
}

// SuspectMember records one failure-suspicion signal against m. The
// internal sources are soft-state expiry and timed-out candidate probes;
// an embedding program may report evidence of its own. Suspicion is
// evidence, not a verdict: repair happens only after HealStep confirms.
func (s *System) SuspectMember(m *can.Member) {
	if m == nil || !s.overlay.CAN().IsMember(m) {
		return
	}
	s.suspects[m]++
}

// Suspects returns the current suspicion list in canonical zone-path
// order (diagnostics and tests).
func (s *System) Suspects() []*can.Member {
	out := make([]*can.Member, 0, len(s.suspects))
	for m := range s.suspects {
		out = append(out, m)
	}
	sortByPath(out)
	return out
}

// CrashMember simulates an ungraceful crash of m: the host goes down
// with no withdrawal, no handover, no cooperation — the member keeps its
// zone as a dead spot in the overlay. Recovery is the detector's job:
// suspicion accumulates from expiring entries and timed-out probes, and
// a later HealStep (or ConvergeRepairs) confirms the crash, takes the
// zone over, and repairs dependent state.
func (s *System) CrashMember(m *can.Member) error {
	if m == nil {
		return errors.New("core: nil member")
	}
	if !s.overlay.CAN().IsMember(m) {
		return errors.New("core: crashing a non-member")
	}
	s.env.SetDown(m.Host, true)
	return nil
}

// effectiveThreshold adapts the configured confirmation threshold to how
// many signals a member can actually generate: a member enclosed by r
// digit-aligned regions produces at most r expiry events per sweep, so
// shallow members confirm on fewer signals (never fewer than one).
func (s *System) effectiveThreshold(m *can.Member) int {
	th := s.cfg.confirm
	if r := m.Depth() / s.overlay.DigitLen(); r < th {
		th = r
	}
	if th < 1 {
		th = 1
	}
	return th
}

// confirmDown verifies a ripe suspicion with one metered probe from m's
// first live CAN neighbor (canonical zone-path order keeps the probe
// sequence deterministic). With no live neighbor to vouch either way —
// the whole neighborhood crashed — the suspicion stands confirmed, so
// cascading crashes still repair.
func (s *System) confirmDown(m *can.Member) bool {
	nbs := m.Neighbors()
	sortByPath(nbs)
	for _, nb := range nbs {
		if s.env.Crashed(nb.Host) {
			continue
		}
		return math.IsInf(s.env.ProbeRTT(nb.Host, m.Host), 1)
	}
	return true
}

// HealReport tallies one HealStep (or an accumulated ConvergeRepairs).
type HealReport struct {
	// Confirmed is the number of suspects whose crash was confirmed.
	Confirmed int
	// FalsePositives is the number of suspects proven alive by the
	// confirmation probe.
	FalsePositives int
	// Takeovers is the number of zones recovered.
	Takeovers int
	// Relocated counts members whose zone changed during takeovers.
	Relocated int
	// PurgedEntries counts orphaned soft-state entries removed.
	PurgedEntries int
	// DroppedSubs counts subscriptions garbage-collected (held by or
	// watching a crashed member).
	DroppedSubs int
	// RearmedSubs counts CloserCandidate subscriptions re-armed so the
	// next publish triggers demand-driven re-selection.
	RearmedSubs int
}

func (r *HealReport) add(o HealReport) {
	r.Confirmed += o.Confirmed
	r.FalsePositives += o.FalsePositives
	r.Takeovers += o.Takeovers
	r.Relocated += o.Relocated
	r.PurgedEntries += o.PurgedEntries
	r.DroppedSubs += o.DroppedSubs
	r.RearmedSubs += o.RearmedSubs
}

// HealStep runs one round of the repair loop: every suspect whose signal
// count reached its confirmation threshold is probed, confirmed crashes
// are repaired (takeover + soft-state purge + subscription GC + routing
// reindex + watcher re-arm), and survivors are acquitted. Suspects below
// threshold are left to accumulate more evidence. Deterministic given a
// deterministic signal history.
func (s *System) HealStep() HealReport {
	var rep HealReport
	var ripe []*can.Member
	for m, signals := range s.suspects {
		if !s.overlay.CAN().IsMember(m) {
			delete(s.suspects, m)
			continue
		}
		if signals >= s.effectiveThreshold(m) {
			ripe = append(ripe, m)
		}
	}
	sortByPath(ripe)
	for _, m := range ripe {
		// An earlier repair's republish may have acquitted m already.
		if _, ok := s.suspects[m]; !ok || !s.overlay.CAN().IsMember(m) {
			continue
		}
		delete(s.suspects, m)
		if !s.confirmDown(m) {
			rep.FalsePositives++
			continue
		}
		rep.Confirmed++
		s.repairMember(m, &rep)
	}
	return rep
}

// ConvergeRepairs runs HealSteps until a step finds nothing to do, or
// maxRounds is exhausted. Cascading crashes converge here: a takeover
// forced to hand a zone to a crashed successor leaves that successor on
// the suspicion list, and a later round finishes the job. Returns the
// accumulated report and the number of rounds executed.
func (s *System) ConvergeRepairs(maxRounds int) (HealReport, int) {
	var total HealReport
	rounds := 0
	for rounds < maxRounds {
		rep := s.HealStep()
		rounds++
		total.add(rep)
		if rep.Confirmed == 0 && rep.FalsePositives == 0 {
			break
		}
	}
	return total, rounds
}

// repairMember recovers from m's confirmed crash: ungraceful zone
// takeover, orphaned-entry purge, subscription garbage collection,
// surgical routing reindex, and demand-driven watcher re-arm. The
// republish of relocated members both restores their map entries under
// their new paths and fires the re-armed CloserCandidate watchers — the
// paper's mechanism 3 performing the maintenance, not a timer.
func (s *System) repairMember(m *can.Member, rep *HealReport) {
	// Capture the dead member's enclosing regions before the takeover
	// rewrites the split tree.
	d := s.overlay.DigitLen()
	deadPath := m.Path()
	var regions []can.Path
	for l := d; l <= deadPath.Len; l += d {
		regions = append(regions, deadPath.Prefix(l))
	}
	hand, err := s.overlay.CAN().TakeoverAvoiding(m, func(x *can.Member) bool {
		return s.env.Crashed(x.Host)
	})
	if err != nil {
		return
	}
	rep.Takeovers++
	rep.Relocated += len(hand.Relocated)

	rep.PurgedEntries += s.store.Purge(m)
	rep.DroppedSubs += s.bus.RemoveSubscriber(m) + s.bus.DropWatching(m)
	// The member is out of the overlay for good. Its keys were never
	// replicated, so they go with it; the members the takeover moved
	// hand theirs to their points' new owners.
	delete(s.kv, m)
	s.rehomeKeys(hand.Relocated)

	// Routing: re-snapshot the region index and invalidate exactly the
	// cached entries pointing at the dead member or a relocated one.
	invalid := map[*can.Member]struct{}{m: {}}
	for _, r := range hand.Relocated {
		invalid[r] = struct{}{}
	}
	s.overlay.Reindex(func(x *can.Member) bool {
		_, ok := invalid[x]
		return ok
	})

	// Re-arm watchers of every region that lost the member, then let the
	// relocated members republish under their new paths; those publishes
	// are what fire the re-armed conditions.
	for _, region := range regions {
		rep.RearmedSubs += s.bus.RearmRegion(region)
	}
	for _, r := range hand.Relocated {
		if s.env.Crashed(r.Host) {
			continue // itself awaiting repair; a later round handles it
		}
		// Relocation changes the member's zone, not its host, so its
		// landmark vector is still valid — republish it rather than
		// re-measuring, which would probe through landmarks that may
		// themselves be down mid-outage and poison the vector.
		vec := s.store.Vector(r)
		s.store.Remove(r)
		if vec != nil {
			if err := s.store.Publish(r, vec); err == nil {
				continue
			}
		}
		if err := s.store.PublishMeasured(r); err != nil {
			continue // landmark space rejected the vector; entry heals on next refresh
		}
	}
}

// sortByPath orders members canonically by zone path (the same order
// Overlay.Members uses).
func sortByPath(ms []*can.Member) {
	sort.Slice(ms, func(i, j int) bool {
		a, b := ms[i].Path(), ms[j].Path()
		if a.Bits != b.Bits {
			return a.Bits < b.Bits
		}
		return a.Len < b.Len
	})
}
