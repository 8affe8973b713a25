package experiment

import "fmt"

// Scale sizes an experiment run. Full reproduces the paper's dimensions
// (~10k-host topologies, 4096-member overlays); Quick shrinks everything
// so the entire suite runs in seconds for tests and CI.
//
// All sizes that reconstruct OCR-damaged constants of the paper are
// flagged "paper-reconstructed" in DESIGN.md §3.
type Scale struct {
	Name string
	// Seed roots every random stream of the run.
	Seed uint64
	// TopoScale multiplies NodesPerStub of the preset topologies.
	TopoScale float64
	// OverlayN is the member count for fixed-size experiments
	// (paper-reconstructed: 4096).
	OverlayN int
	// OverlaySweep is the member-count axis of Figures 2, 14, 15
	// (paper-reconstructed: 1K..8K).
	OverlaySweep []int
	// Queries is the number of routing measurements per configuration;
	// the paper uses twice the overlay size — QueriesFor applies that rule
	// capped at Queries.
	Queries int
	// NNQueries is the number of nearest-neighbor searches averaged in
	// Figures 3-6.
	NNQueries int
	// Landmarks is the default landmark count (paper-reconstructed: 15).
	Landmarks int
	// LandmarkSweep is the landmark axis of Figures 10-13.
	LandmarkSweep []int
	// RTTs is the default per-selection probe budget
	// (paper-reconstructed: 10).
	RTTs int
	// RTTSweep is the probe-budget axis of Figures 3, 5, 10-13.
	RTTSweep []int
	// ERSSweep is the probe-budget axis of the expanding-ring Figures 4, 6.
	ERSSweep []int
	// CondenseSweep is the map condense-depth axis of Figure 16
	// (reduction rate = 2^depth).
	CondenseSweep []int
	// CANDims is the dimensionality axis of Figure 2's basic-CAN curves.
	CANDims []int
	// ScaleSweep is the physical-node-count axis of the ext-scale
	// experiment (overridable with GSSO_SCALE_N). Full targets 10^5;
	// GSSO_SCALE_N=1000000 pushes the same cells to 10^6.
	ScaleSweep []int
}

// Full is the paper-scale configuration.
func Full(seed uint64) Scale {
	return Scale{
		Name:          "full",
		Seed:          seed,
		TopoScale:     1.0,
		OverlayN:      4096,
		OverlaySweep:  []int{1024, 2048, 4096, 8192},
		Queries:       8192,
		NNQueries:     100,
		Landmarks:     15,
		LandmarkSweep: []int{5, 15, 30},
		RTTs:          10,
		RTTSweep:      []int{1, 2, 3, 5, 8, 10, 15, 20, 30},
		ERSSweep:      []int{10, 30, 100, 300, 1000, 2000, 4000},
		CondenseSweep: []int{0, 1, 2, 3, 4, 6},
		CANDims:       []int{2, 3, 4, 5},
		ScaleSweep:    []int{100_000},
	}
}

// Quick is the CI-sized configuration: same axes, shrunk an order of
// magnitude, preserving every qualitative shape.
func Quick(seed uint64) Scale {
	return Scale{
		Name:          "quick",
		Seed:          seed,
		TopoScale:     0.2,
		OverlayN:      256,
		OverlaySweep:  []int{128, 256, 512},
		Queries:       512,
		NNQueries:     30,
		Landmarks:     8,
		LandmarkSweep: []int{4, 8, 16},
		RTTs:          8,
		RTTSweep:      []int{1, 2, 5, 10, 20},
		ERSSweep:      []int{10, 30, 100, 300, 1000, 2000},
		CondenseSweep: []int{0, 1, 2, 4},
		CANDims:       []int{2, 3, 4},
		ScaleSweep:    []int{1024, 2048},
	}
}

// QueriesFor applies the paper's "measurements are made for twice the
// number of nodes in the overlay" rule, capped by the scale's Queries.
func (s Scale) QueriesFor(overlayN int) int {
	q := 2 * overlayN
	if q > s.Queries {
		q = s.Queries
	}
	if q < 16 {
		q = 16
	}
	return q
}

// Validate sanity-checks a scale.
func (s Scale) Validate() error {
	switch {
	case s.TopoScale <= 0:
		return fmt.Errorf("experiment: TopoScale = %v", s.TopoScale)
	case s.OverlayN < 8:
		return fmt.Errorf("experiment: OverlayN = %d", s.OverlayN)
	case len(s.OverlaySweep) == 0 || len(s.RTTSweep) == 0 || len(s.LandmarkSweep) == 0:
		return fmt.Errorf("experiment: empty sweep axis")
	case s.Landmarks < 1 || s.RTTs < 1 || s.NNQueries < 1:
		return fmt.Errorf("experiment: non-positive defaults")
	}
	return nil
}
