// Nearestpeer: the paper's §4 story as a demo — a node that wants its
// physically closest peer compares blind expanding-ring search against
// the hybrid landmark+RTT scheme backed by global soft-state.
//
//	go run ./examples/nearestpeer
package main

import (
	"fmt"
	"log"

	"gsso/internal/core"
	"gsso/internal/simrand"
	"gsso/internal/topology"
)

func main() {
	net, err := topology.Generate(topology.TSKLarge(topology.GTITMLatency()).Scaled(0.2),
		simrand.New(7).Split("topo"))
	if err != nil {
		log.Fatal(err)
	}
	sys, err := core.New(
		core.WithSeed(7),
		core.WithNetwork(net),
		core.WithOverlaySize(384),
		core.WithLandmarks(10),
		core.WithProbeBudget(8),
	)
	if err != nil {
		log.Fatal(err)
	}
	members := sys.Members()
	rng := sys.RNG("queries")

	fmt.Println("finding the physically nearest overlay member via global soft-state")
	fmt.Println("(8 RTT probes per query; truth = oracle scan of all members)")
	fmt.Println()

	exact, nearMiss := 0, 0
	const trials = 10
	for i := 0; i < trials; i++ {
		m := members[rng.Intn(len(members))]
		res, err := sys.NearestMember(m)
		if err != nil {
			log.Fatal(err)
		}
		// Oracle ground truth.
		hosts := make([]topology.NodeID, 0, len(members))
		for _, other := range members {
			if other != m {
				hosts = append(hosts, other.Host)
			}
		}
		trueNearest, trueDist := net.Nearest(m.Host, hosts)
		foundDist := net.Latency(m.Host, res.Member.Host)
		stretch := foundDist / trueDist
		mark := " "
		switch {
		case res.Member.Host == trueNearest:
			exact++
			mark = "="
		case stretch < 1.5:
			nearMiss++
			mark = "~"
		}
		fmt.Printf("  member@host%-5d -> found host%-5d %6.2f ms (true: host%-5d %6.2f ms)  stretch %.2f %s  [%d probes]\n",
			m.Host, res.Member.Host, foundDist, trueNearest, trueDist, stretch, mark, res.Probes)
	}
	fmt.Printf("\nexact hits: %d/%d, within 1.5x: %d/%d\n", exact, trials, exact+nearMiss, trials)
	fmt.Printf("total RTT probes metered: %d\n", sys.Stats().Probes)
	fmt.Println("\n(an expanding-ring search needs to probe a large fraction of all")
	fmt.Println(" members for the same quality — run `topobench -run fig3` to see)")
}
