// Package simrand provides deterministic, splittable random number streams
// for simulation experiments.
//
// Every stochastic decision in the library draws from a Source. Sources are
// derived from a single experiment seed plus a string label, so adding a new
// consumer of randomness does not perturb the streams seen by existing
// consumers. This keeps every experiment bit-reproducible across runs and
// insensitive to refactoring.
package simrand

import (
	"hash/fnv"
	"math/rand/v2"
)

// Source is a deterministic random stream. It wraps a PCG generator from
// math/rand/v2 and adds simulation-oriented helpers. A Source is NOT safe
// for concurrent use; derive one Source per goroutine with Split.
type Source struct {
	rng  *rand.Rand
	seed uint64
	path string
}

// New returns a Source rooted at the given experiment seed.
func New(seed uint64) *Source {
	return &Source{
		rng:  rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
		seed: seed,
		path: "",
	}
}

// Split derives an independent child stream identified by label. Splitting
// is stable: the child depends only on the root seed and the sequence of
// labels used to reach it, never on how much randomness the parent consumed.
func (s *Source) Split(label string) *Source {
	h := fnv.New64a()
	h.Write([]byte(s.path))
	h.Write([]byte{0})
	h.Write([]byte(label))
	sub := h.Sum64()
	return &Source{
		rng:  rand.New(rand.NewPCG(s.seed, sub)),
		seed: s.seed,
		path: s.path + "/" + label,
	}
}

// Uint64 returns a uniformly distributed 64-bit value.
func (s *Source) Uint64() uint64 { return s.rng.Uint64() }

// Intn returns a uniform int in [0, n). It panics if n <= 0, matching
// math/rand semantics; callers validate n at their own boundary.
func (s *Source) Intn(n int) int { return s.rng.IntN(n) }

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// Range returns a uniform float64 in [lo, hi).
func (s *Source) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*s.rng.Float64()
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.rng.Float64() < p }

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.rng.Perm(n) }

// Sample returns k distinct values drawn uniformly from [0, n) in random
// order. It panics if k > n. For k close to n it shuffles; for small k it
// uses rejection sampling to avoid O(n) work.
func (s *Source) Sample(n, k int) []int {
	if k > n {
		panic("simrand: Sample k > n")
	}
	if k <= 0 {
		return nil
	}
	// Rejection sampling is cheap while the hit rate stays low.
	if k*3 < n {
		seen := make(map[int]struct{}, k)
		out := make([]int, 0, k)
		for len(out) < k {
			v := s.rng.IntN(n)
			if _, dup := seen[v]; dup {
				continue
			}
			seen[v] = struct{}{}
			out = append(out, v)
		}
		return out
	}
	perm := s.rng.Perm(n)
	return perm[:k]
}
