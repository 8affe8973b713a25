// Wirecluster: the proximity subsystem over real TCP, in one process.
// Six nodes start on localhost; the first three double as landmarks.
// Every node measures real RTTs to the landmarks, reduces the vector to a
// landmark number through the Hilbert curve, publishes a soft-state
// record at the number's owner, and then discovers its nearest peer by
// querying the soft-state and ping-probing the returned candidates —
// the same code path cmd/overlayd serves across machines.
//
//	go run ./examples/wirecluster
package main

import (
	"fmt"
	"log"
	"time"

	"gsso/internal/cluster"
	"gsso/internal/wire"
)

func main() {
	const (
		nodes     = 6
		landmarks = 3
		timeout   = 2 * time.Second
	)

	// Reserve the addresses first, then start the real cluster with the
	// agreed landmark/peer lists.
	addrs, err := cluster.ReserveAddrs(nodes)
	if err != nil {
		log.Fatal(err)
	}

	cfg := wire.SpaceConfig{
		Landmarks:  addrs[:landmarks],
		IndexDims:  3,
		BitsPerDim: 5,
		MaxRTTMs:   50,
	}
	fleet := make([]*wire.Node, nodes)
	for i := range fleet {
		n, err := wire.NewNode(addrs[i], cfg, addrs, time.Minute)
		if err != nil {
			log.Fatal(err)
		}
		defer n.Close()
		fleet[i] = n
	}
	fmt.Printf("cluster up: %d nodes, %d landmarks\n\n", nodes, landmarks)

	// Publish: measure landmark vector (3 pings per landmark, min taken),
	// derive the landmark number, store the record at its owner. The
	// refresh loop keeps it alive against the TTL.
	for _, n := range fleet {
		rec, err := n.Publish(3, timeout)
		if err != nil {
			log.Fatal(err)
		}
		n.StartRefresh(20*time.Second, 1, timeout)
		fmt.Printf("%s published: vector=%.3v ms  number=%d  owner=%s\n",
			n.Addr(), rec.Vector, rec.Number, n.OwnerOf(rec.Number))
	}

	fmt.Println("\nnearest-peer discovery (soft-state lookup + 3 probes each):")
	for _, n := range fleet {
		addr, rtt, err := n.FindNearest(3, timeout)
		if err != nil {
			fmt.Printf("  %s: %v\n", n.Addr(), err)
			continue
		}
		fmt.Printf("  %s -> %s (%v)\n", n.Addr(), addr, rtt)
	}
	fmt.Println("\n(on localhost all RTTs are microseconds; across real hosts the")
	fmt.Println(" landmark numbers separate by network position first)")
}
