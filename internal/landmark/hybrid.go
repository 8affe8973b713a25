package landmark

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"gsso/internal/hilbert"
)

// This file is the paper's hybrid search (§4) as one kernel both stacks
// call: landmark clustering only pre-selects, ordering candidates by
// vector distance (Rank); at most a budget of direct RTT probes then
// picks the winner (ProbeBest).

// Ranked is Rank's scratch entry: a candidate with its distance and key.
type Ranked[C any, K cmp.Ordered] struct {
	Cand C
	Dist float64
	Key  K
}

// Rank sorts cands in place by landmark-vector distance to q, nearest
// first. Equal distances order by key, ascending; equal keys keep their
// input order. vec and key are called once per candidate. buf is scratch:
// Rank returns it (grown if it was short) for the next call, and with
// capacity for every candidate it does not allocate.
func Rank[C any, K cmp.Ordered](cands []C, q Vector, vec func(C) Vector, key func(C) K,
	buf []Ranked[C, K]) []Ranked[C, K] {
	buf = buf[:0]
	for _, c := range cands {
		buf = append(buf, Ranked[C, K]{Cand: c, Dist: Distance(vec(c), q), Key: key(c)})
	}
	slices.SortStableFunc(buf, func(a, b Ranked[C, K]) int {
		if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
			return c
		}
		return cmp.Compare(a.Key, b.Key)
	})
	for i, r := range buf {
		cands[i] = r.Cand
	}
	return buf
}

// ProbeBest RTT-probes candidates in order and returns the index in order
// of the winner (-1 if none), its RTT (+Inf if none) and the probes spent.
// The rule:
//   - probe reports ok = false for a candidate that must not be probed
//     (the searcher itself); it is passed over and costs nothing.
//   - Every other probe counts against budget, a timeout included.
//   - An RTT of +Inf is a timeout: onDead (if non-nil) is told, and the
//     candidate can never win.
//   - The first reachable candidate seeds the best; after that only a
//     strictly lower cost replaces it. Cost is what probe reports beside
//     the RTT — the RTT itself, or a load-adjusted score. A reachable
//     candidate with infinite cost can win only if nothing cheaper
//     answers, and is never reported dead.
func ProbeBest[C any](order []C, budget int, probe func(C) (rtt, cost float64, ok bool),
	onDead func(C)) (best int, rtt float64, probes int) {
	best, rtt = -1, math.Inf(1)
	bestCost := 0.0
	for i, c := range order {
		if probes >= budget {
			break
		}
		r, cost, ok := probe(c)
		if !ok {
			continue
		}
		probes++
		if math.IsInf(r, 1) {
			if onDead != nil {
				onDead(c)
			}
			continue
		}
		if best < 0 || cost < bestCost {
			best, rtt, bestCost = i, r, cost
		}
	}
	return best, rtt, probes
}

// CurveNumber quantizes the leading curve.Dims() components of v onto the
// curve's grid (each clamped into [0, maxRTT]) and encodes the cell: the
// landmark number. It is the one reduction both stacks share, and it does
// not allocate: the grid coordinates live on the stack.
func CurveNumber(curve hilbert.Curve, v []float64, maxRTT float64) (uint64, error) {
	dims := curve.Dims()
	if len(v) < dims {
		return 0, fmt.Errorf("landmark: vector dims %d, curve needs %d", len(v), dims)
	}
	var scratch [64]uint32
	coords := scratch[:dims]
	if err := curve.QuantizeInto(coords, v[:dims], maxRTT); err != nil {
		return 0, err
	}
	return curve.Encode(coords)
}
