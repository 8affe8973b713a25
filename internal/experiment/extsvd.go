package experiment

import (
	"fmt"

	"gsso/internal/experiment/engine"
	"gsso/internal/landmark"
	"gsso/internal/netsim"
	"gsso/internal/simrand"
	"gsso/internal/topology"
)

// RunExtSVD evaluates the third §5.4 optimization: many landmarks plus
// SVD denoising. Every RTT measurement carries 30% multiplicative noise
// (a static per-pair jitter — the probes are noisy, the ground truth is
// not). Candidates are ranked either by raw noisy-vector distance or by
// distance in the top-k SVD basis, then the usual probe budget refines.
func RunExtSVD(sc Scale) ([]*Table, error) {
	net, err := buildNet(TSKLarge, LatGTITM, sc)
	if err != nil {
		return nil, err
	}
	// The noisy measurement is this experiment's premise, so nothing here
	// may come from the shared vector caches: vectors are measured fresh
	// under the jittered env every run.
	env := netsim.NewRun(net, "ext-svd")
	env.SetPerturbation(netsim.StaticJitter{Seed: sc.Seed, Amplitude: 0.3})
	rng := simrand.New(sc.Seed).Split("extsvd")
	hosts := net.RandomStubHosts(rng.Split("hosts"), sc.OverlayN)

	// A large landmark set, per the optimization's premise.
	landmarks := 2 * sc.Landmarks
	set, err := landmark.Choose(net, landmarks, rng.Split("lm"))
	if err != nil {
		return nil, err
	}
	// Noisy vectors, one per host.
	vectors := make([]landmark.Vector, len(hosts))
	for i, h := range hosts {
		vectors[i] = landmark.Measure(env, h, set)
	}

	queries := rng.Split("queries").Sample(len(hosts), sc.NNQueries)
	budget := sc.RTTs

	// meanStretchWith ranks every other host by dist(vecs[i], vecs[q]),
	// probes the top budget (noisy probes), and scores the pick against
	// the unjittered ground truth.
	meanStretchWith := func(vecs []landmark.Vector) float64 {
		order := make([]int, len(hosts)) // per-call scratch: units rank concurrently
		var scratch []landmark.Ranked[int, topology.NodeID]
		return meanNNStretch(net, hosts, queries, func(qi int) topology.NodeID {
			q := hosts[qi]
			for i := range order {
				order[i] = i
			}
			scratch = landmark.Rank(order, vecs[qi],
				func(i int) landmark.Vector { return vecs[i] },
				func(i int) topology.NodeID { return hosts[i] }, scratch)
			i, _, _ := landmark.ProbeBest(order, budget, func(i int) (float64, float64, bool) {
				if hosts[i] == q {
					return 0, 0, false
				}
				rtt := env.ProbeRTT(q, hosts[i])
				return rtt, rtt, true
			}, nil)
			if i < 0 {
				return topology.None
			}
			return hosts[order[i]]
		})
	}

	t := &Table{
		ID: "ext-svd",
		Title: fmt.Sprintf("SVD denoising of %d noisy landmarks (§5.4 optimization 3, 30%% probe noise, budget=%d)",
			landmarks, budget),
		Columns: []string{"ranking space", "dims", "nearest-neighbor stretch"},
	}
	// One unit per ranking space. The ranking and probing are pure given
	// the vector set (probe noise is a deterministic function of the pair,
	// not of probe order), so the rows measure concurrently.
	type rankRow struct {
		name string
		dims int
		k    int // 0 = raw vectors
	}
	rows := []rankRow{{name: "raw noisy vectors", dims: landmarks}}
	for _, k := range []int{4, 8} {
		if k >= landmarks {
			continue
		}
		rows = append(rows, rankRow{name: fmt.Sprintf("SVD top-%d", k), dims: k, k: k})
	}
	stretches, err := engine.Map(len(rows), func(i int) (float64, error) {
		vecs := vectors
		if rows[i].k > 0 {
			denoised, err := landmark.DenoiseVectors(vectors, rows[i].k)
			if err != nil {
				return 0, err
			}
			vecs = denoised
		}
		return meanStretchWith(vecs), nil
	})
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		t.AddRowf(r.name, r.dims, stretches[i])
	}
	t.Note("paper §5.4: SVD over many landmarks 'extracts useful information ... and suppresses noises'")
	t.Note("measured shape: the top-8 basis lands within a few percent of the full ranking at a quarter of")
	t.Note("the dimensionality (cheaper curves and smaller maps); under our proportional probe noise the")
	t.Note("raw ranking stays competitive — SVD's full denoising win needs additive, low-rank-structured noise")
	return []*Table{t}, nil
}
