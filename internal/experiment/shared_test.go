package experiment

import (
	"fmt"
	"sync"
	"testing"

	"gsso/internal/experiment/engine"
	"gsso/internal/netsim"
	"gsso/internal/simrand"
)

// TestSharedNetworkConcurrentEnvs hammers one cached topology from many
// concurrent netsim.Envs — the exact sharing pattern the engine creates
// when parallel units wrap the same immutable network. Run under -race (the
// Makefile's check target does), this is the proof that Network really is
// read-only after Generate and that Env meters are safely concurrent.
func TestSharedNetworkConcurrentEnvs(t *testing.T) {
	sc := Quick(1)
	net, err := buildNet(TSKLarge, LatGTITM, sc)
	if err != nil {
		t.Fatal(err)
	}
	again, err := buildNet(TSKLarge, LatGTITM, sc)
	if err != nil {
		t.Fatal(err)
	}
	if net != again {
		t.Fatal("same key returned distinct networks")
	}

	const units = 16
	sums, err := engine.Map(units, func(i int) (float64, error) {
		env := netsim.NewRun(net, fmt.Sprintf("hammer-%d", i))
		rng := simrand.New(7).Split(fmt.Sprintf("hammer/%d", i))
		hosts := net.StubHosts()
		sum := 0.0
		// Nested fan-out: sweep-point units inside an experiment unit.
		parts, err := engine.Map(4, func(j int) (float64, error) {
			inner := rng.Split(fmt.Sprintf("part/%d", j))
			s := 0.0
			for k := 0; k < 200; k++ {
				a := hosts[inner.Intn(len(hosts))]
				b := hosts[inner.Intn(len(hosts))]
				s += env.ProbeRTT(a, b)
				env.CountMessages("hammer", 1)
			}
			return s, nil
		})
		if err != nil {
			return 0, err
		}
		for _, p := range parts {
			sum += p
		}
		return sum, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Determinism: unit i's RTT sum depends only on its identity labels, so
	// a second pass must reproduce it exactly.
	again2, err := engine.Map(units, func(i int) (float64, error) {
		env := netsim.NewRun(net, fmt.Sprintf("hammer2-%d", i))
		rng := simrand.New(7).Split(fmt.Sprintf("hammer/%d", i))
		hosts := net.StubHosts()
		sum := 0.0
		for j := 0; j < 4; j++ {
			inner := rng.Split(fmt.Sprintf("part/%d", j))
			part := 0.0
			for k := 0; k < 200; k++ {
				a := hosts[inner.Intn(len(hosts))]
				b := hosts[inner.Intn(len(hosts))]
				part += env.ProbeRTT(a, b)
			}
			sum += part // same association order as the nested-Map pass
		}
		return sum, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sums {
		if sums[i] != again2[i] {
			t.Fatalf("unit %d: concurrent sum %v != sequential sum %v", i, sums[i], again2[i])
		}
	}
}

// TestSharedNNCoreSingleBuild exercises the second cache layer: many
// goroutines asking for the same harness core must share one build and may
// search it concurrently.
func TestSharedNNCoreSingleBuild(t *testing.T) {
	sc := Quick(1)
	var wg sync.WaitGroup
	cores := make([]*nnCore, 8)
	for i := range cores {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			core, err := sharedNNCore(TSKLarge, sc)
			if err != nil {
				t.Error(err)
				return
			}
			// Read-only searches from concurrent goroutines.
			env := netsim.NewRun(core.net, fmt.Sprintf("nncheck-%d", i))
			for _, qi := range core.queries[:min(4, len(core.queries))] {
				core.index.SearchHybrid(env, core.hosts[qi], 1)
				core.ers.Search(env, core.hosts[qi], 1)
			}
			cores[i] = core
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(cores); i++ {
		if cores[i] != cores[0] {
			t.Fatalf("goroutine %d got a distinct core", i)
		}
	}
}
