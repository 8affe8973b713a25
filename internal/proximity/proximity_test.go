package proximity

import (
	"cmp"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"gsso/internal/can"
	"gsso/internal/landmark"
	"gsso/internal/netsim"
	"gsso/internal/simrand"
	"gsso/internal/topology"
)

type harness struct {
	net   *topology.Network
	env   *netsim.Env
	space *landmark.Space
	hosts []topology.NodeID
}

func newHarness(t testing.TB, hostCount int) *harness {
	t.Helper()
	spec := topology.Spec{
		TransitDomains:        3,
		TransitNodesPerDomain: 4,
		StubsPerTransitNode:   3,
		NodesPerStub:          15,
		ExtraTransitEdgeProb:  0.3,
		ExtraStubEdgeProb:     0.2,
		ExtraInterDomainLinks: 2,
		Latency:               topology.GTITMLatency(),
	}
	net := topology.MustGenerate(spec, simrand.New(1))
	env := netsim.New(net)
	rng := simrand.New(2)
	set, err := landmark.Choose(net, 8, rng.Split("lm"))
	if err != nil {
		t.Fatal(err)
	}
	space, err := landmark.NewSpace(set, 3, 6,
		landmark.EstimateMaxRTT(net, set, net.RandomStubHosts(rng.Split("est"), 30)))
	if err != nil {
		t.Fatal(err)
	}
	hosts := net.RandomStubHosts(rng.Split("hosts"), hostCount)
	return &harness{net: net, env: env, space: space, hosts: hosts}
}

func TestBuildIndexValidation(t *testing.T) {
	h := newHarness(t, 10)
	if _, err := BuildIndex(nil, h.space, h.hosts); err == nil {
		t.Fatal("nil env accepted")
	}
	if _, err := BuildIndex(h.env, nil, h.hosts); err == nil {
		t.Fatal("nil space accepted")
	}
	if _, err := BuildIndex(h.env, h.space, nil); err == nil {
		t.Fatal("empty hosts accepted")
	}
}

// TestBuildIndexRejectsDuplicateHost: a host listed twice would be indexed
// twice, and the curve window, which skips only the query's own index,
// would offer the other copy as the query's nearest neighbour at RTT 0.
func TestBuildIndexRejectsDuplicateHost(t *testing.T) {
	h := newHarness(t, 60)
	hosts := append(h.hosts[:len(h.hosts):len(h.hosts)], h.hosts[7])
	if _, err := BuildIndex(h.env, h.space, hosts); err == nil {
		t.Fatalf("host %d listed twice accepted", h.hosts[7])
	}
	ix, err := BuildIndex(h.env, h.space, h.hosts)
	if err != nil {
		t.Fatal(err)
	}
	if res := ix.SearchHybrid(h.env, h.hosts[7], 5); res.Found == h.hosts[7] || res.Found == topology.None {
		t.Fatalf("SearchHybrid(%d) found %d", h.hosts[7], res.Found)
	}
}

// TestOrderByNumber pins the radix pass to a comparison sort by (number,
// host): hosts out of order, numbers tied in runs, small numbers that need
// one byte pass and numbers with the top bit set that need all eight.
func TestOrderByNumber(t *testing.T) {
	rng := simrand.New(4)
	for _, spread := range []uint64{1, 3, 1 << 18, math.MaxUint64} {
		const n = 500
		hosts := rng.Perm(2 * n)[:n] // distinct, unordered
		nums := make([]uint64, n)
		pos := make([]int32, 2*n)
		for i := range pos {
			pos[i] = -1
		}
		for i, h := range hosts {
			nums[i] = rng.Uint64() % spread
			if spread == math.MaxUint64 && i%2 == 0 {
				nums[i] |= 1 << 63
			}
			pos[h] = int32(i)
		}
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		slices.SortFunc(want, func(a, b int) int {
			if c := cmp.Compare(nums[a], nums[b]); c != 0 {
				return c
			}
			return cmp.Compare(hosts[a], hosts[b])
		})
		if got := orderByNumber(pos, nums); !slices.Equal(got, want) {
			t.Fatalf("spread %d: radix order differs from the (number, host) sort", spread)
		}
	}
}

func TestBuildIndexMetersJoinCost(t *testing.T) {
	h := newHarness(t, 20)
	h.env.ResetProbes()
	ix, err := BuildIndex(h.env, h.space, h.hosts)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(20 * h.space.Set().Len())
	if h.env.Probes() != want {
		t.Fatalf("index build used %d probes, want %d", h.env.Probes(), want)
	}
	if ix.Len() != 20 {
		t.Fatalf("Len = %d", ix.Len())
	}
	// The vectors share one backing array: each must still be exactly its
	// host's measurement, and growing one must not write into the next.
	oracle := netsim.New(h.net)
	for i, host := range h.hosts {
		got, want := ix.VectorOf(host), landmark.Measure(oracle, host, h.space.Set())
		if len(got) != len(want) {
			t.Fatalf("host %d: vector has %d dims, want %d", host, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("host %d dim %d: indexed %v, measured %v", host, k, got[k], want[k])
			}
		}
		if i+1 < len(h.hosts) {
			next := ix.VectorOf(h.hosts[i+1])
			first := next[0]
			_ = append(got, -1)
			if next[0] != first {
				t.Fatalf("appending to host %d's vector overwrote host %d's", host, h.hosts[i+1])
			}
		}
	}
	if ix.VectorOf(topology.NodeID(1)) != nil {
		t.Fatal("vector for unindexed host")
	}
	got := ix.Hosts()
	got[0] = 0 // must be a copy
	if ix.Hosts()[0] == 0 && h.hosts[0] != 0 {
		t.Fatal("Hosts leaked internal slice")
	}
}

// TestBuildIndexSameAtAnyGOMAXPROCS: the hosts are measured on GOMAXPROCS
// workers, and the index and the probe bill must not show it.
func TestBuildIndexSameAtAnyGOMAXPROCS(t *testing.T) {
	h := newHarness(t, 101) // not a multiple of 2 or 4: uneven shares
	build := func(procs int, plan *netsim.FaultPlan) (*Index, int64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		env := netsim.New(h.net)
		env.SetFaultPlan(plan)
		ix, err := BuildIndex(env, h.space, h.hosts)
		if err != nil {
			t.Fatal(err)
		}
		return ix, env.Probes()
	}
	same := func(t *testing.T, got, want *Index) {
		t.Helper()
		if !reflect.DeepEqual(got.numbers, want.numbers) || !reflect.DeepEqual(got.byNum, want.byNum) ||
			!reflect.DeepEqual(got.pos, want.pos) {
			t.Fatal("numbers/byNum/pos differ")
		}
		for i := range want.vectors {
			for k := range want.vectors[i] {
				if math.Float64bits(got.vectors[i][k]) != math.Float64bits(want.vectors[i][k]) {
					t.Fatalf("host %d dim %d: %v, want %v", want.hosts[i], k, got.vectors[i][k], want.vectors[i][k])
				}
			}
		}
	}
	want, wantProbes := build(1, nil)
	if wantProbes != int64(len(h.hosts)*h.space.Set().Len()) {
		t.Fatalf("sequential build spent %d probes", wantProbes)
	}
	for _, procs := range []int{2, 4} {
		got, probes := build(procs, nil)
		if probes != wantProbes {
			t.Fatalf("GOMAXPROCS %d: %d probes, want %d", procs, probes, wantProbes)
		}
		same(t, got, want)
	}

	// With a fault plan the probe order decides which probes are lost, so
	// the build must not fan out: the reference is the plain per-host,
	// per-landmark ProbeRTT loop.
	plan := &netsim.FaultPlan{Seed: 5, LossRate: 0.3}
	ref := netsim.New(h.net)
	ref.SetFaultPlan(plan)
	lost := 0
	var refVecs []float64
	for _, host := range h.hosts {
		for _, lm := range h.space.Set().Nodes() {
			rtt := ref.ProbeRTT(host, lm)
			if math.IsInf(rtt, 1) {
				lost++
			}
			refVecs = append(refVecs, rtt)
		}
	}
	if lost == 0 {
		t.Fatal("plan lost no probe")
	}
	for _, procs := range []int{1, 4} {
		got, probes := build(procs, plan)
		if probes != ref.Probes() {
			t.Fatalf("plan, GOMAXPROCS %d: %d probes, want %d", procs, probes, ref.Probes())
		}
		dims := h.space.Set().Len()
		for i, vec := range got.vectors {
			for k, rtt := range vec {
				if math.Float64bits(rtt) != math.Float64bits(refVecs[i*dims+k]) {
					t.Fatalf("plan, GOMAXPROCS %d: host %d dim %d = %v, sequential loop measured %v",
						procs, got.hosts[i], k, rtt, refVecs[i*dims+k])
				}
			}
		}
	}
}

func TestCandidatesExcludeQueryAndBounded(t *testing.T) {
	h := newHarness(t, 50)
	ix, err := BuildIndex(h.env, h.space, h.hosts)
	if err != nil {
		t.Fatal(err)
	}
	q := h.hosts[0]
	cands := ix.Candidates(q, 10)
	if len(cands) > 10 {
		t.Fatalf("got %d candidates", len(cands))
	}
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	for _, c := range cands {
		if c == q {
			t.Fatal("candidates include the query host")
		}
	}
	if got := ix.Candidates(topology.NodeID(1), 10); got != nil {
		t.Fatal("candidates for unindexed host")
	}
	if got := ix.Candidates(q, 0); got != nil {
		t.Fatal("candidates for zero k")
	}
}

func TestCandidatesBeatRandomOnAverage(t *testing.T) {
	h := newHarness(t, 200)
	ix, err := BuildIndex(h.env, h.space, h.hosts)
	if err != nil {
		t.Fatal(err)
	}
	rng := simrand.New(7)
	var preSum, randSum float64
	n := 0
	for trial := 0; trial < 30; trial++ {
		q := h.hosts[rng.Intn(len(h.hosts))]
		cands := ix.Candidates(q, 5)
		if len(cands) == 0 {
			continue
		}
		for _, c := range cands {
			preSum += h.net.Latency(q, c)
			n++
		}
		for i := 0; i < len(cands); i++ {
			r := h.hosts[rng.Intn(len(h.hosts))]
			if r != q {
				randSum += h.net.Latency(q, r)
			}
		}
	}
	if preSum >= randSum {
		t.Fatalf("preselection (%.1f) no better than random (%.1f)", preSum, randSum)
	}
}

// TestSearchHybridDeadCandidateNeverWins: a timed-out probe is charged but
// cannot be the result, in all three indexes' shared probe step.
func TestSearchHybridDeadCandidateNeverWins(t *testing.T) {
	h := newHarness(t, 60)
	ix, err := BuildIndex(h.env, h.space, h.hosts)
	if err != nil {
		t.Fatal(err)
	}
	q := h.hosts[0]
	cands := ix.Candidates(q, 2)
	h.env.SetDown(cands[0], true)
	if res := ix.SearchHybrid(h.env, q, 1); res.Found != topology.None || res.Probes != 1 {
		t.Fatalf("budget 1 on a dead top candidate = %+v, want nothing found after 1 probe", res)
	}
	if res := ix.SearchHybrid(h.env, q, 2); res.Found != cands[1] || res.Probes != 2 {
		t.Fatalf("budget 2 = %+v, want %d after 2 probes", res, cands[1])
	}
}

func TestSearchHybridFindsGoodNeighbor(t *testing.T) {
	h := newHarness(t, 200)
	ix, err := BuildIndex(h.env, h.space, h.hosts)
	if err != nil {
		t.Fatal(err)
	}
	rng := simrand.New(9)
	var stretches []float64
	for trial := 0; trial < 40; trial++ {
		q := h.hosts[rng.Intn(len(h.hosts))]
		h.env.ResetProbes()
		res := ix.SearchHybrid(h.env, q, 10)
		if res.Found == topology.None {
			t.Fatal("hybrid found nothing")
		}
		if res.Probes > 10 {
			t.Fatalf("hybrid used %d probes, budget 10", res.Probes)
		}
		if int64(res.Probes) != h.env.Probes() {
			t.Fatalf("probe accounting mismatch: %d vs %d", res.Probes, h.env.Probes())
		}
		if res.FoundRTT != h.net.RTT(q, res.Found) {
			t.Fatal("FoundRTT wrong")
		}
		stretches = append(stretches, Stretch(h.net, q, res.Found, h.hosts))
	}
	mean := 0.0
	for _, s := range stretches {
		mean += s
	}
	mean /= float64(len(stretches))
	t.Logf("hybrid budget=10 mean stretch: %.3f", mean)
	if mean > 3 {
		t.Fatalf("hybrid mean stretch %.3f too high", mean)
	}
}

func TestHybridImprovesWithBudget(t *testing.T) {
	h := newHarness(t, 300)
	ix, err := BuildIndex(h.env, h.space, h.hosts)
	if err != nil {
		t.Fatal(err)
	}
	rng := simrand.New(11)
	queries := make([]topology.NodeID, 40)
	for i := range queries {
		queries[i] = h.hosts[rng.Intn(len(h.hosts))]
	}
	meanStretch := func(budget int) float64 {
		total := 0.0
		for _, q := range queries {
			res := ix.SearchHybrid(h.env, q, budget)
			total += Stretch(h.net, q, res.Found, h.hosts)
		}
		return total / float64(len(queries))
	}
	s1 := meanStretch(1)
	s20 := meanStretch(20)
	t.Logf("stretch: budget1=%.3f budget20=%.3f", s1, s20)
	if s20 > s1 {
		t.Fatalf("more probes made the result worse: %.3f -> %.3f", s1, s20)
	}
}

func buildERS(t testing.TB, h *harness) *ERS {
	t.Helper()
	overlay, err := can.New(2)
	if err != nil {
		t.Fatal(err)
	}
	rng := simrand.New(31)
	for _, host := range h.hosts {
		if _, err := overlay.JoinRandom(host, rng); err != nil {
			t.Fatal(err)
		}
	}
	e, err := NewERS(overlay)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewERSValidation(t *testing.T) {
	if _, err := NewERS(nil); err == nil {
		t.Fatal("nil overlay accepted")
	}
	o, _ := can.New(2)
	rng := simrand.New(1)
	o.JoinRandom(5, rng)
	o.JoinRandom(5, rng) // duplicate host
	if _, err := NewERS(o); err == nil {
		t.Fatal("duplicate host accepted")
	}
}

func TestERSSearch(t *testing.T) {
	h := newHarness(t, 150)
	e := buildERS(t, h)
	q := h.hosts[3]
	h.env.ResetProbes()
	res := e.Search(h.env, q, 30)
	if res.Found == topology.None {
		t.Fatal("ERS found nothing")
	}
	if res.Probes > 30 {
		t.Fatalf("budget exceeded: %d", res.Probes)
	}
	if int64(res.Probes) != h.env.Probes() {
		t.Fatal("probe accounting mismatch")
	}
	if res.Found == q {
		t.Fatal("ERS returned the query itself")
	}
}

func TestERSExhaustiveIsOptimal(t *testing.T) {
	h := newHarness(t, 60)
	e := buildERS(t, h)
	q := h.hosts[0]
	res := e.Search(h.env, q, 10_000) // enough to visit everyone
	if res.Probes != len(h.hosts)-1 {
		t.Fatalf("exhaustive ERS probed %d of %d hosts", res.Probes, len(h.hosts)-1)
	}
	if s := Stretch(h.net, q, res.Found, h.hosts); s != 1 {
		t.Fatalf("exhaustive ERS stretch = %v, want 1", s)
	}
}

func TestERSUnknownQueryOrZeroBudget(t *testing.T) {
	h := newHarness(t, 30)
	e := buildERS(t, h)
	if res := e.Search(h.env, topology.NodeID(0), 10); res.Found != topology.None {
		t.Fatal("unknown host search returned something")
	}
	if res := e.Search(h.env, h.hosts[0], 0); res.Found != topology.None || res.Probes != 0 {
		t.Fatal("zero budget search spent probes")
	}
}

func TestHybridBeatsERSAtSmallBudget(t *testing.T) {
	// The paper's core §4 claim: at small probe budgets the hybrid finds
	// far closer neighbors than expanding-ring search.
	h := newHarness(t, 300)
	ix, err := BuildIndex(h.env, h.space, h.hosts)
	if err != nil {
		t.Fatal(err)
	}
	e := buildERS(t, h)
	rng := simrand.New(13)
	const budget = 10
	var hybridSum, ersSum float64
	n := 0
	for trial := 0; trial < 40; trial++ {
		q := h.hosts[rng.Intn(len(h.hosts))]
		hr := ix.SearchHybrid(h.env, q, budget)
		er := e.Search(h.env, q, budget)
		hs := Stretch(h.net, q, hr.Found, h.hosts)
		es := Stretch(h.net, q, er.Found, h.hosts)
		if math.IsInf(hs, 1) || math.IsInf(es, 1) {
			continue
		}
		hybridSum += hs
		ersSum += es
		n++
	}
	t.Logf("budget %d: hybrid stretch %.3f, ERS stretch %.3f", budget, hybridSum/float64(n), ersSum/float64(n))
	if hybridSum >= ersSum {
		t.Fatalf("hybrid (%.1f) not better than ERS (%.1f) at budget %d", hybridSum, ersSum, budget)
	}
}

func TestStretch(t *testing.T) {
	h := newHarness(t, 30)
	q := h.hosts[0]
	nearest, _ := h.net.Nearest(q, h.hosts)
	if s := Stretch(h.net, q, nearest, h.hosts); s != 1 {
		t.Fatalf("stretch of true nearest = %v", s)
	}
	if s := Stretch(h.net, q, topology.None, h.hosts); !math.IsInf(s, 1) {
		t.Fatalf("stretch of not-found = %v", s)
	}
	if s := Stretch(h.net, q, h.hosts[1], []topology.NodeID{q}); !math.IsInf(s, 1) {
		t.Fatalf("stretch with no other members = %v", s)
	}
	for _, other := range h.hosts[1:] {
		if s := Stretch(h.net, q, other, h.hosts); s < 1 {
			t.Fatalf("stretch below 1: %v", s)
		}
	}
}

// BenchmarkBuildIndex100k is the landmark-index share of a 10^5-host world
// build (the sim-scale benchmark workload): 15 landmarks, every stub host.
func BenchmarkBuildIndex100k(b *testing.B) {
	net := topology.MustGenerate(topology.TSKLarge(topology.GTITMLatency()).SizedWide(100_000), simrand.New(1))
	rng := simrand.New(2)
	space, err := landmark.Calibrate(net, 15, rng.Split("lm"), rng.Split("est"))
	if err != nil {
		b.Fatal(err)
	}
	hosts := net.StubHosts()
	env := netsim.NewRun(net, "bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildIndex(env, space, hosts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "ms/op")
}
