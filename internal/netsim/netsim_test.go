package netsim

import (
	"math"
	"sync"
	"testing"

	"gsso/internal/simrand"
	"gsso/internal/topology"
)

func testEnv(t *testing.T) *Env {
	t.Helper()
	spec := topology.Spec{
		TransitDomains:        2,
		TransitNodesPerDomain: 3,
		StubsPerTransitNode:   2,
		NodesPerStub:          6,
		ExtraTransitEdgeProb:  0.3,
		ExtraStubEdgeProb:     0.2,
		ExtraInterDomainLinks: 1,
		Latency:               topology.GTITMLatency(),
	}
	return New(topology.MustGenerate(spec, simrand.New(1)))
}

func TestClock(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatal("fresh clock not at 0")
	}
	c.Advance(10)
	c.Advance(2.5)
	if c.Now() != 12.5 {
		t.Fatalf("Now = %v", c.Now())
	}
	c.Advance(-5)
	if c.Now() != 12.5 {
		t.Fatal("negative advance moved the clock")
	}
}

func TestProbeAccounting(t *testing.T) {
	e := testEnv(t)
	hosts := e.Net().StubHosts()
	if e.Probes() != 0 {
		t.Fatal("fresh env has probes")
	}
	rtt := e.ProbeRTT(hosts[0], hosts[1])
	if rtt != 2*e.Latency(hosts[0], hosts[1]) {
		t.Fatalf("RTT %v != 2x latency", rtt)
	}
	e.ProbeRTT(hosts[1], hosts[2])
	if e.Probes() != 2 {
		t.Fatalf("Probes = %d", e.Probes())
	}
	if prev := e.ResetProbes(); prev != 2 {
		t.Fatalf("ResetProbes returned %d", prev)
	}
	if e.Probes() != 0 {
		t.Fatal("probes not reset")
	}
}

func TestLatencyIsNotMetered(t *testing.T) {
	e := testEnv(t)
	hosts := e.Net().StubHosts()
	e.Latency(hosts[0], hosts[1])
	if e.Probes() != 0 {
		t.Fatal("Latency() counted as a probe")
	}
}

func TestMessageAccounting(t *testing.T) {
	e := testEnv(t)
	e.CountMessages("publish", 3)
	e.CountMessages("notify", 1)
	e.CountMessages("publish", 2)
	if e.Messages("publish") != 5 || e.Messages("notify") != 1 {
		t.Fatalf("counters wrong: %v", e.MessageTotals())
	}
	if e.Messages("absent") != 0 {
		t.Fatal("absent category nonzero")
	}
	totals := e.MessageTotals()
	totals["publish"] = 999 // must be a copy
	if e.Messages("publish") != 5 {
		t.Fatal("MessageTotals leaked internal map")
	}
	e.ResetMessages()
	if len(e.MessageTotals()) != 0 {
		t.Fatal("ResetMessages did not clear")
	}
}

func TestConcurrentAccounting(t *testing.T) {
	e := testEnv(t)
	hosts := e.Net().StubHosts()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				e.ProbeRTT(hosts[0], hosts[1])
				e.CountMessages("m", 1)
			}
		}()
	}
	wg.Wait()
	if e.Probes() != 800 || e.Messages("m") != 800 {
		t.Fatalf("probes=%d messages=%d", e.Probes(), e.Messages("m"))
	}
}

// TestRunTotals: concurrent Envs under one run label sum into that label's
// totals and no other's, and resetting an Env rewinds its own meters but
// not the totals (ext-pubsub and ext-churn reset their envs mid-run, and
// their telemetry counts what was spent before the reset).
func TestRunTotals(t *testing.T) {
	net := testEnv(t).Net()
	hosts := net.StubHosts()
	labels := []string{"totals-a", "totals-b"}
	type before struct {
		probes int64
		msgs   map[string]int64
	}
	start := map[string]before{} // totals outlive -count reruns
	for _, l := range labels {
		p, m := RunTotals(l)
		start[l] = before{p, m}
	}
	envs := []*Env{NewRun(net, labels[0]), NewRun(net, labels[0]), NewRun(net, labels[0]),
		NewRun(net, labels[1]), NewRun(net, labels[1])}
	var wg sync.WaitGroup
	for i, e := range envs {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				dst := make([]float64, 3)
				for k := 0; k <= 10*i; k++ {
					e.ProbeRTT(hosts[0], hosts[1])
					e.ProbeRTTs(hosts[2], hosts[:3], dst)
					e.CountMessages("publish", i+1)
					e.CountMessages(labels[i/3], 1)
				}
			}()
		}
	}
	wg.Wait()

	want := map[string]before{}
	for i, e := range envs {
		l := labels[i/3]
		w := want[l]
		if w.msgs == nil {
			w.msgs = map[string]int64{}
		}
		w.probes += e.Probes()
		for k, v := range e.MessageTotals() {
			w.msgs[k] += v
		}
		want[l] = w
		e.ResetProbes()
		e.ResetMessages()
	}
	for _, l := range labels {
		probes, msgs := RunTotals(l)
		if got := probes - start[l].probes; got != want[l].probes {
			t.Errorf("%s: probes grew by %d, want %d", l, got, want[l].probes)
		}
		if len(msgs) != len(want[l].msgs) {
			t.Errorf("%s: categories %v, want %v", l, msgs, want[l].msgs)
		}
		for k, v := range want[l].msgs {
			if got := msgs[k] - start[l].msgs[k]; got != v {
				t.Errorf("%s: %s messages grew by %d, want %d", l, k, got, v)
			}
		}
	}
}

func TestStaticJitterSymmetricAndBounded(t *testing.T) {
	e := testEnv(t)
	e.SetPerturbation(StaticJitter{Seed: 42, Amplitude: 0.3})
	hosts := e.Net().StubHosts()
	for i := 0; i < 100; i++ {
		a, b := hosts[i%len(hosts)], hosts[(i*7+1)%len(hosts)]
		if a == b {
			continue
		}
		la, lb := e.Latency(a, b), e.Latency(b, a)
		if la != lb {
			t.Fatalf("jitter asymmetric: %v vs %v", la, lb)
		}
		base := e.Net().Latency(a, b)
		if la < base*0.7-1e-9 || la > base*1.3+1e-9 {
			t.Fatalf("jitter out of bounds: base %v perturbed %v", base, la)
		}
	}
}

func TestStaticJitterActuallyPerturbs(t *testing.T) {
	e := testEnv(t)
	hosts := e.Net().StubHosts()
	e.SetPerturbation(StaticJitter{Seed: 42, Amplitude: 0.3})
	changed := 0
	for i := 1; i < 50; i++ {
		if e.Latency(hosts[0], hosts[i]) != e.Net().Latency(hosts[0], hosts[i]) {
			changed++
		}
	}
	if changed < 40 {
		t.Fatalf("only %d/49 latencies perturbed", changed)
	}
}

func TestStaticJitterStableOverTime(t *testing.T) {
	e := testEnv(t)
	hosts := e.Net().StubHosts()
	e.SetPerturbation(StaticJitter{Seed: 42, Amplitude: 0.3})
	before := e.Latency(hosts[0], hosts[1])
	e.Clock().Advance(1e6)
	if e.Latency(hosts[0], hosts[1]) != before {
		t.Fatal("static jitter drifted with time")
	}
}

func TestNodeJitterSymmetricAndStructured(t *testing.T) {
	e := testEnv(t)
	hosts := e.Net().StubHosts()
	e.SetPerturbation(NodeJitter{Seed: 3, Amplitude: 0.8, Period: 100})
	a, b := hosts[0], hosts[1]
	if e.Latency(a, b) != e.Latency(b, a) {
		t.Fatal("node jitter asymmetric")
	}
	// Congestion only inflates: perturbed in [base, base*(1+A)^2].
	for i := 0; i < 50; i++ {
		u, v := hosts[i%len(hosts)], hosts[(i*13+7)%len(hosts)]
		if u == v {
			continue
		}
		base := e.Net().Latency(u, v)
		p := e.Latency(u, v)
		if p < base-1e-9 || p > base*1.8*1.8+1e-9 {
			t.Fatalf("node jitter out of bounds: base %v perturbed %v", base, p)
		}
	}
	// Across epochs the factor changes eventually.
	l0 := e.Latency(a, b)
	changed := false
	for i := 0; i < 10 && !changed; i++ {
		e.Clock().Advance(100)
		if e.Latency(a, b) != l0 {
			changed = true
		}
	}
	if !changed {
		t.Fatal("node jitter never changed across epochs")
	}
}

func TestNodeJitterFraction(t *testing.T) {
	e := testEnv(t)
	hosts := e.Net().StubHosts()
	e.SetPerturbation(NodeJitter{Seed: 4, Amplitude: 3, Period: 0, Fraction: 0.2})
	unchanged := 0
	total := 0
	for i := 0; i+1 < len(hosts) && total < 60; i += 2 {
		a, b := hosts[i], hosts[i+1]
		total++
		if e.Latency(a, b) == e.Net().Latency(a, b) {
			unchanged++
		}
	}
	// P(both endpoints uncongested) = 0.64; expect a solid majority of
	// pairs unchanged but not all.
	if unchanged < total/3 {
		t.Fatalf("only %d/%d pairs unchanged at fraction 0.2", unchanged, total)
	}
	if unchanged == total {
		t.Fatal("no pair perturbed at fraction 0.2")
	}
}

func TestNodeJitterFactorization(t *testing.T) {
	// lat'(a,b)/base(a,b) == f(a)*f(b): check via three pairs.
	e := testEnv(t)
	hosts := e.Net().StubHosts()
	e.SetPerturbation(NodeJitter{Seed: 9, Amplitude: 0.5, Period: 0})
	a, b, c := hosts[0], hosts[1], hosts[2]
	r := func(x, y topology.NodeID) float64 { return e.Latency(x, y) / e.Net().Latency(x, y) }
	// (f_a f_b)(f_a f_c)/(f_b f_c) = f_a^2
	fa2 := r(a, b) * r(a, c) / r(b, c)
	if fa2 <= 0 || math.IsNaN(fa2) {
		t.Fatalf("fa^2 = %v", fa2)
	}
	// Consistency with a fourth node.
	d := hosts[3]
	fa2alt := r(a, d) * r(a, c) / r(d, c)
	if math.Abs(fa2-fa2alt) > 1e-9 {
		t.Fatalf("node factors inconsistent: %v vs %v", fa2, fa2alt)
	}
}

func TestPerturbationPreservesSelfZero(t *testing.T) {
	e := testEnv(t)
	hosts := e.Net().StubHosts()
	e.SetPerturbation(StaticJitter{Seed: 1, Amplitude: 0.5})
	if e.Latency(hosts[3], hosts[3]) != 0 {
		t.Fatal("self-latency not zero under perturbation")
	}
}

func TestUnitFromRange(t *testing.T) {
	for i := uint64(0); i < 1000; i++ {
		u := unitFrom(pairHash(i, 1, 2, 0))
		if u < 0 || u >= 1 || math.IsNaN(u) {
			t.Fatalf("unitFrom out of range: %v", u)
		}
	}
}

func TestPairHashSymmetric(t *testing.T) {
	for i := 0; i < 100; i++ {
		a, b := topology.NodeID(i), topology.NodeID(i*3+1)
		if pairHash(9, a, b, 4) != pairHash(9, b, a, 4) {
			t.Fatal("pairHash not symmetric")
		}
	}
}

// TestSetDownSemantics pins SetDown/IsDown/DownHosts across the lock-free
// "nobody is down" path and the locked path, including the way back.
func TestSetDownSemantics(t *testing.T) {
	e := testEnv(t)
	hosts := e.Net().StubHosts()
	a, b := hosts[0], hosts[len(hosts)-1]
	if e.IsDown(a) || len(e.DownHosts()) != 0 {
		t.Fatal("fresh env reports a down host")
	}
	e.SetDown(a, false) // recovering a live host is a no-op
	e.SetDown(b, true)
	e.SetDown(b, true) // idempotent
	if e.IsDown(a) || !e.IsDown(b) {
		t.Fatalf("IsDown(a)=%v IsDown(b)=%v, want false true", e.IsDown(a), e.IsDown(b))
	}
	if got := e.DownHosts(); len(got) != 1 || got[0] != b {
		t.Fatalf("DownHosts = %v, want [%d]", got, b)
	}
	if rtt := e.ProbeRTT(a, b); !math.IsInf(rtt, 1) {
		t.Fatalf("probe to a down host = %v, want +Inf", rtt)
	}
	e.SetDown(b, false)
	if e.IsDown(b) || len(e.DownHosts()) != 0 {
		t.Fatal("recovered host still down")
	}
	if rtt := e.ProbeRTT(a, b); math.IsInf(rtt, 1) || rtt <= 0 {
		t.Fatalf("probe after recovery = %v", rtt)
	}
}

// TestSetDownConcurrentWithProbes flips hosts down and up while other
// goroutines probe (run under -race). A prober never sees anything but the
// true RTT or a timeout, and a host nobody flips never times out.
func TestSetDownConcurrentWithProbes(t *testing.T) {
	e := testEnv(t)
	hosts := e.Net().StubHosts()
	stable, flipped := hosts[:2], hosts[2:6]
	const rounds = 2000

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			h := flipped[i%len(flipped)]
			e.SetDown(h, true)
			e.SetDown(h, false)
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				h := flipped[i%len(flipped)]
				want := 2 * e.Latency(stable[0], h)
				if rtt := e.ProbeRTT(stable[0], h); rtt != want && !math.IsInf(rtt, 1) {
					t.Errorf("probe of a flipping host = %v, want %v or +Inf", rtt, want)
					return
				}
				if rtt := e.ProbeRTT(stable[0], stable[1]); math.IsInf(rtt, 1) {
					t.Error("probe between two hosts nobody set down timed out")
					return
				}
				e.DownHosts()
			}
		}()
	}
	wg.Wait()
	if got := e.DownHosts(); len(got) != 0 {
		t.Fatalf("DownHosts after every flip was undone = %v", got)
	}
	if got := e.Probes(); got != 3*2*rounds {
		t.Fatalf("Probes = %d, want %d", got, 3*2*rounds)
	}
}

// TestProbeRTTsMatchesSingleProbes pins the batched probe to the per-probe
// loop it replaces: same results bit for bit, same Probes(), same growth of
// the run totals. With nothing installed the row comes from the topology in one
// pass (Network.RTTs); with a perturbation, crashed hosts (which time out
// and are still counted), or a seeded fault plan, whose loss stream keys on
// each probe's sequence number, it must fall back to the per-probe path.
// Both stub wirings are covered: exact stubs (a random graph and its lazy
// distance matrix) and hub stubs (past the 256-host threshold, a star).
// Every prober, transit or stub, probes every host, so its own stub-mates
// and itself are among the targets.
func TestProbeRTTsMatchesSingleProbes(t *testing.T) {
	hub := topology.Spec{
		TransitDomains:        1,
		TransitNodesPerDomain: 3,
		StubsPerTransitNode:   1,
		NodesPerStub:          300,
		ExtraTransitEdgeProb:  0.5,
		Latency:               topology.GTITMLatency(),
	}
	exact, hubNet := testEnv(t).Net(), topology.MustGenerate(hub, simrand.New(2))
	if hubNet.EdgeCount(topology.LinkIntraStub) != hubNet.StubCount()*(hub.NodesPerStub-1) {
		t.Fatal("the hub world's stubs are not stars")
	}
	// The exact world's cases keep their plain names; the hub world's are
	// prefixed.
	for _, world := range []struct {
		prefix string
		net    *topology.Network
	}{{"", exact}, {"hub/", hubNet}} {
		net := world.net
		hosts := net.StubHosts()
		targets := net.AllHosts()
		// Two transit probers, a gateway host (stub position 0), and stub
		// hosts inside stubs.
		probers := []topology.NodeID{0, topology.NodeID(net.TransitCount() - 1), hosts[0], hosts[1], hosts[len(hosts)/2]}
		cases := map[string]func(*Env){
			"plain":     func(*Env) {},
			"perturbed": func(e *Env) { e.SetPerturbation(StaticJitter{Seed: 4, Amplitude: 0.3}) },
			"crashed":   func(e *Env) { e.SetDown(targets[5], true); e.SetDown(hosts[1], true) },
			"plan": func(e *Env) {
				e.SetFaultPlan(&FaultPlan{Seed: 9, LossRate: 0.4,
					Slow: []SlowWindow{{From: 0, Until: 100, Factor: 3}}})
			},
			"plan+crashed": func(e *Env) {
				e.SetFaultPlan(&FaultPlan{Seed: 9, LossRate: 0.4})
				e.SetDown(targets[0], true)
			},
		}
		for name, install := range cases {
			t.Run(world.prefix+name, func(t *testing.T) {
				run := "rtts-" + world.prefix + name
				single, batched := NewRun(net, run+"-single"), NewRun(net, run+"-batched")
				install(single)
				install(batched)
				// Run totals are process-wide and outlive -count reruns:
				// compare their growth.
				single0, _ := RunTotals(run + "-single")
				batched0, _ := RunTotals(run + "-batched")
				infs, moved := 0, 0
				got := make([]float64, len(targets))
				for _, a := range probers {
					batched.ProbeRTTs(a, targets, got)
					for i, b := range targets {
						want := single.ProbeRTT(a, b)
						if math.Float64bits(got[i]) != math.Float64bits(want) {
							t.Fatalf("ProbeRTTs(%d)[%d] = %v, ProbeRTT(%d,%d) = %v", a, i, got[i], a, b, want)
						}
						if name == "plain" && math.Float64bits(want) != math.Float64bits(2*net.Latency(a, b)) {
							t.Fatalf("ProbeRTT(%d,%d) = %v, 2·Latency = %v", a, b, want, 2*net.Latency(a, b))
						}
						if math.IsInf(want, 1) {
							infs++
						}
						if !math.IsInf(want, 1) && want != 2*net.Latency(a, b) {
							moved++
						}
					}
				}
				switch {
				case name == "perturbed" && moved == 0:
					t.Fatal("the perturbation moved no RTT: it tests nothing beyond plain")
				case name != "plain" && name != "perturbed" && infs == 0:
					t.Fatal("case never timed a probe out: it tests nothing beyond plain")
				}
				want := int64(len(probers) * len(targets))
				if batched.Probes() != want || single.Probes() != want {
					t.Fatalf("Probes: batched %d, single %d, want %d", batched.Probes(), single.Probes(), want)
				}
				b, _ := RunTotals(run + "-batched")
				s, _ := RunTotals(run + "-single")
				if b-batched0 != want || s-single0 != want {
					t.Fatalf("run totals grew by: batched %d, single %d, want %d", b-batched0, s-single0, want)
				}
			})
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched dst length")
		}
	}()
	New(exact).ProbeRTTs(exact.StubHosts()[0], exact.StubHosts()[:3], make([]float64, 1))
}
