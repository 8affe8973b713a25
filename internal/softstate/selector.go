package softstate

import (
	"errors"

	"gsso/internal/can"
	"gsso/internal/ecan"
	"gsso/internal/landmark"
)

// Selector is the paper's proximity-neighbor selection procedure as an
// ecan.Selector: consult the region's map with the selecting node's own
// landmark number (Table 1), RTT-probe the top candidates, pick the
// closest measured. Every probe is metered through the store's env, so
// experiments can plot quality against "# RTT measurements".
type Selector struct {
	store    *Store
	budget   int
	fallback ecan.Selector
}

// Compile-time interface check.
var _ ecan.Selector = (*Selector)(nil)

// NewSelector returns a Selector that spends at most budget RTT probes per
// selection. fallback handles regions with no usable map content (it may
// be nil, in which case the first candidate is used).
func NewSelector(store *Store, budget int, fallback ecan.Selector) (*Selector, error) {
	if store == nil {
		return nil, errors.New("softstate: nil store")
	}
	if budget < 1 {
		return nil, errors.New("softstate: probe budget must be >= 1")
	}
	return &Selector{store: store, budget: budget, fallback: fallback}, nil
}

// Select implements ecan.Selector.
func (s *Selector) Select(self *can.Member, region can.Path, candidates []*can.Member) *can.Member {
	vec := s.store.Vector(self)
	if vec != nil {
		entries, _, err := s.store.Lookup(region, vec)
		if err == nil && len(entries) > 0 {
			if best := s.probeBest(self, entries); best != nil {
				return best
			}
		}
	}
	if s.fallback != nil {
		return s.fallback.Select(self, region, candidates)
	}
	if len(candidates) > 0 {
		return candidates[0]
	}
	return nil
}

// probeBest RTT-measures up to budget entries and returns the closest
// member, or nil when nothing (other than self) was reachable. A probe
// that times out triggers the reactive deletion of §5.2: the dead
// member's soft-state is purged on the spot.
func (s *Selector) probeBest(self *can.Member, entries []*Entry) *can.Member {
	best, _, _ := landmark.ProbeBest(entries, s.budget, func(e *Entry) (float64, float64, bool) {
		if e.Member == self {
			return 0, 0, false
		}
		rtt := s.store.env.ProbeRTT(self.Host, e.Host)
		return rtt, rtt, true
	}, func(e *Entry) { s.store.ReportUnreachable(e.Member) })
	if best < 0 {
		return nil
	}
	return entries[best].Member
}
