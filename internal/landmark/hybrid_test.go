package landmark

import (
	"math"
	"slices"
	"testing"
)

// hcand is one scripted candidate of the kernel tests.
type hcand struct {
	key  string
	vec  Vector
	rtt  float64 // +Inf = the probe times out
	cost float64 // 0 = the cost is the RTT
	self bool    // the searcher itself: never probed
}

func hvec(c hcand) Vector { return c.vec }
func hkey(c hcand) string { return c.key }

func hprobe(c hcand) (float64, float64, bool) {
	if c.self {
		return 0, 0, false
	}
	if c.cost != 0 {
		return c.rtt, c.cost, true
	}
	return c.rtt, c.rtt, true
}

func TestHybridKernel(t *testing.T) {
	inf := math.Inf(1)
	q := Vector{0, 0}
	cases := []struct {
		name       string
		cands      []hcand
		budget     int
		wantOrder  []string // keys after Rank
		wantWinner string   // "" = none
		wantRTT    float64
		wantProbes int
		wantDead   []string
	}{
		{
			name: "distance ties broken by key",
			cands: []hcand{
				{key: "c", vec: Vector{3, 4}, rtt: 1},
				{key: "b", vec: Vector{0, 5}, rtt: 2},
				{key: "a", vec: Vector{5, 0}, rtt: 3},
				{key: "z", vec: Vector{1, 0}, rtt: 9},
			},
			budget:    2,
			wantOrder: []string{"z", "a", "b", "c"},
			// Only z and a fit the budget; the cheaper c is never probed.
			wantWinner: "a", wantRTT: 3, wantProbes: 2,
		},
		{
			name: "budget larger than the candidate list",
			cands: []hcand{
				{key: "a", vec: Vector{1, 0}, rtt: 7},
				{key: "b", vec: Vector{2, 0}, rtt: 4},
				{key: "c", vec: Vector{3, 0}, rtt: 5},
			},
			budget:     10,
			wantOrder:  []string{"a", "b", "c"},
			wantWinner: "b", wantRTT: 4, wantProbes: 3,
		},
		{
			name: "self excluded without spending a probe",
			cands: []hcand{
				{key: "me", vec: Vector{0, 0}, rtt: 0, self: true},
				{key: "a", vec: Vector{1, 0}, rtt: 6},
				{key: "b", vec: Vector{2, 0}, rtt: 3},
				{key: "c", vec: Vector{3, 0}, rtt: 1},
			},
			budget:     2,
			wantOrder:  []string{"me", "a", "b", "c"},
			wantWinner: "b", wantRTT: 3, wantProbes: 2,
		},
		{
			name: "timeout charged and reported dead",
			cands: []hcand{
				{key: "a", vec: Vector{1, 0}, rtt: inf},
				{key: "b", vec: Vector{2, 0}, rtt: 8},
				{key: "c", vec: Vector{3, 0}, rtt: 2},
			},
			budget:     2,
			wantOrder:  []string{"a", "b", "c"},
			wantWinner: "b", wantRTT: 8, wantProbes: 2,
			wantDead: []string{"a"},
		},
		{
			name: "all dead",
			cands: []hcand{
				{key: "a", vec: Vector{1, 0}, rtt: inf},
				{key: "b", vec: Vector{2, 0}, rtt: inf},
				{key: "c", vec: Vector{3, 0}, rtt: inf},
			},
			budget:     2,
			wantOrder:  []string{"a", "b", "c"},
			wantWinner: "", wantRTT: inf, wantProbes: 2,
			wantDead: []string{"a", "b"},
		},
		{
			name: "cost is not the RTT",
			cands: []hcand{
				{key: "a", vec: Vector{1, 0}, rtt: 1, cost: inf}, // saturated
				{key: "b", vec: Vector{2, 0}, rtt: 5, cost: 20},
				{key: "c", vec: Vector{3, 0}, rtt: 2, cost: 30},
			},
			budget:     3,
			wantOrder:  []string{"a", "b", "c"},
			wantWinner: "b", wantRTT: 5, wantProbes: 3,
		},
		{
			name: "dead then saturated: the first reachable seeds",
			cands: []hcand{
				{key: "a", vec: Vector{1, 0}, rtt: inf},
				{key: "b", vec: Vector{2, 0}, rtt: 5, cost: inf},
				{key: "c", vec: Vector{3, 0}, rtt: 2, cost: inf},
			},
			budget:     3,
			wantOrder:  []string{"a", "b", "c"},
			wantWinner: "b", wantRTT: 5, wantProbes: 3,
			wantDead: []string{"a"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cands := slices.Clone(tc.cands)
			Rank(cands, q, hvec, hkey, nil)
			var order []string
			for _, c := range cands {
				order = append(order, c.key)
			}
			if !slices.Equal(order, tc.wantOrder) {
				t.Fatalf("Rank order = %v, want %v", order, tc.wantOrder)
			}
			var dead []string
			best, rtt, probes := ProbeBest(cands, tc.budget, hprobe, func(c hcand) { dead = append(dead, c.key) })
			winner := ""
			if best >= 0 {
				winner = cands[best].key
			}
			if winner != tc.wantWinner || rtt != tc.wantRTT || probes != tc.wantProbes {
				t.Fatalf("ProbeBest = (%q, %v, %d probes), want (%q, %v, %d)",
					winner, rtt, probes, tc.wantWinner, tc.wantRTT, tc.wantProbes)
			}
			if !slices.Equal(dead, tc.wantDead) {
				t.Fatalf("reported dead %v, want %v", dead, tc.wantDead)
			}
		})
	}
}

func TestHybridKernelAllocs(t *testing.T) {
	cands := []hcand{
		{key: "d", vec: Vector{4, 1}, rtt: 3},
		{key: "me", vec: Vector{0, 0}, self: true},
		{key: "b", vec: Vector{1, 2}, rtt: math.Inf(1)},
		{key: "a", vec: Vector{2, 1}, rtt: 5},
		{key: "c", vec: Vector{0, 3}, rtt: 1},
	}
	q := Vector{0, 0}
	buf := make([]Ranked[hcand, string], 0, len(cands))
	allocs := testing.AllocsPerRun(100, func() {
		buf = Rank(cands, q, hvec, hkey, buf)
		ProbeBest(cands, 3, hprobe, nil)
	})
	if allocs != 0 {
		t.Fatalf("Rank + ProbeBest allocate %v times per call with caller scratch, want 0", allocs)
	}
}
