// Quickstart: build a topology-aware overlay, route between members, and
// see the benefit of global soft-state over random neighbor selection.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"gsso/internal/can"
	"gsso/internal/core"
	"gsso/internal/ecan"
	"gsso/internal/simrand"
	"gsso/internal/topology"
)

func main() {
	// A simulated deployment: ~2k-host transit-stub Internet, 256-member
	// eCAN, 8 landmarks, 10 RTT probes per neighbor selection. Everything
	// is deterministic in the seed.
	net, err := topology.Generate(topology.TSKLarge(topology.GTITMLatency()).Scaled(0.2),
		simrand.New(42).Split("topo"))
	if err != nil {
		log.Fatal(err)
	}
	sys, err := core.New(
		core.WithSeed(42),
		core.WithNetwork(net),
		core.WithOverlaySize(256),
		core.WithLandmarks(8),
		core.WithProbeBudget(10),
	)
	if err != nil {
		log.Fatal(err)
	}
	st := sys.Stats()
	fmt.Printf("deployment: %d physical hosts, %d overlay members, %d landmarks\n",
		st.Hosts, st.Members, st.Landmarks)
	fmt.Printf("soft-state: %d entries published onto the overlay\n\n", st.TotalEntries)

	// The overlay is a DHT: any point in the unit square is a key, and
	// exactly one member owns it.
	key := can.Point{0.25, 0.75}
	owner := sys.Lookup(key)
	fmt.Printf("key %v is owned by %v\n\n", key, owner)

	// String keys hash onto the space; any member is an access point.
	members0 := sys.Members()
	put, err := sys.Put(members0[0], "proceedings/icdcs03", []byte("topology-aware overlays"))
	if err != nil {
		log.Fatal(err)
	}
	got, err := sys.Get(members0[len(members0)-1], "proceedings/icdcs03")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("put landed on %v in %d hops; get from the far side: %q in %d hops\n\n",
		put.Owner, put.Hops, got.Value, got.Hops)

	// Route between random members with topology-aware neighbor selection
	// (the global soft-state is consulted lazily while routing).
	members := sys.Members()
	rng := sys.RNG("demo")
	fmt.Println("routes with global-soft-state neighbor selection:")
	total := 0.0
	const trials = 5
	for i := 0; i < trials; i++ {
		src := members[rng.Intn(len(members))]
		dst := members[rng.Intn(len(members))]
		r, err := sys.RouteTo(src, dst)
		if err != nil {
			log.Fatal(err)
		}
		total += r.Stretch
		fmt.Printf("  %2d hops, %7.2f ms overlay vs %7.2f ms direct (stretch %.2f)\n",
			r.Hops, r.LatencyMs, r.DirectMs, r.Stretch)
	}
	fmt.Printf("mean stretch: %.2f\n\n", total/trials)

	// Compare with the baseline: random neighbor selection.
	sys.Overlay().SetSelector(ecan.RandomSelector{RNG: sys.RNG("random")})
	fmt.Println("the same overlay with random neighbor selection:")
	totalRnd := 0.0
	for i := 0; i < trials; i++ {
		src := members[rng.Intn(len(members))]
		dst := members[rng.Intn(len(members))]
		r, err := sys.RouteTo(src, dst)
		if err != nil {
			log.Fatal(err)
		}
		totalRnd += r.Stretch
		fmt.Printf("  %2d hops, %7.2f ms overlay vs %7.2f ms direct (stretch %.2f)\n",
			r.Hops, r.LatencyMs, r.DirectMs, r.Stretch)
	}
	fmt.Printf("mean stretch: %.2f (vs %.2f topology-aware)\n",
		totalRnd/trials, total/trials)
}
