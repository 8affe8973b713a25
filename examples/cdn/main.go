// CDN: replica selection with global soft-state. A content provider
// places R replicas on overlay members; clients anywhere in the Internet
// find their nearest replica by consulting the overlay's proximity maps —
// no per-client probing of every replica.
//
//	go run ./examples/cdn
package main

import (
	"fmt"
	"log"
	"sort"

	"gsso/internal/core"
	"gsso/internal/simrand"
	"gsso/internal/topology"
)

func main() {
	net, err := topology.Generate(topology.TSKLarge(topology.GTITMLatency()).Scaled(0.2),
		simrand.New(11).Split("topo"))
	if err != nil {
		log.Fatal(err)
	}
	sys, err := core.New(
		core.WithSeed(11),
		core.WithNetwork(net),
		core.WithOverlaySize(320),
		core.WithLandmarks(10),
		core.WithProbeBudget(6),
	)
	if err != nil {
		log.Fatal(err)
	}
	rng := sys.RNG("cdn")

	// Clients are stub hosts that are NOT overlay members.
	memberHosts := map[topology.NodeID]bool{}
	for _, m := range sys.Members() {
		memberHosts[m.Host] = true
	}
	var clients []topology.NodeID
	for _, h := range net.RandomStubHosts(rng, 400) {
		if !memberHosts[h] {
			clients = append(clients, h)
		}
		if len(clients) == 20 {
			break
		}
	}

	fmt.Printf("CDN scenario: %d overlay members serve content; %d external clients\n",
		len(sys.Members()), len(clients))
	fmt.Println("each client finds its nearest server via the soft-state maps (6 probes)")
	fmt.Println()

	var softStateMs, randomMs, oracleMs []float64
	for _, client := range clients {
		res, err := sys.NearestToHost(client)
		if err != nil {
			log.Fatal(err)
		}
		softStateMs = append(softStateMs, net.Latency(client, res.Member.Host))

		// Baseline: a random server.
		members := sys.Members()
		randomMs = append(randomMs, net.Latency(client, members[rng.Intn(len(members))].Host))

		// Oracle: the true nearest server.
		hosts := make([]topology.NodeID, len(members))
		for i, m := range members {
			hosts[i] = m.Host
		}
		_, best := net.Nearest(client, hosts)
		oracleMs = append(oracleMs, best)
	}

	median := func(xs []float64) float64 {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return s[len(s)/2]
	}
	mean := func(xs []float64) float64 {
		t := 0.0
		for _, x := range xs {
			t += x
		}
		return t / float64(len(xs))
	}
	fmt.Printf("%-22s %10s %10s\n", "server selection", "mean ms", "median ms")
	fmt.Printf("%-22s %10.2f %10.2f\n", "soft-state maps", mean(softStateMs), median(softStateMs))
	fmt.Printf("%-22s %10.2f %10.2f\n", "random server", mean(randomMs), median(randomMs))
	fmt.Printf("%-22s %10.2f %10.2f\n", "oracle nearest", mean(oracleMs), median(oracleMs))
	fmt.Printf("\nprobing cost: %d RTT measurements total (landmark vectors + candidate probes)\n",
		sys.Stats().Probes)
}
