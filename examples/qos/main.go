// QoS: the §6 scenario — a node subscribes to its routing neighbor's load
// statistics in the global soft-state and is notified the moment the
// neighbor crosses 80% of its capacity, triggering demand-driven
// re-selection instead of periodic polling.
//
//	go run ./examples/qos
package main

import (
	"fmt"
	"log"

	"gsso/internal/can"
	"gsso/internal/core"
	"gsso/internal/pubsub"
	"gsso/internal/simrand"
	"gsso/internal/softstate"
	"gsso/internal/topology"
)

func main() {
	net, err := topology.Generate(topology.TSKLarge(topology.GTITMLatency()).Scaled(0.15),
		simrand.New(23).Split("topo"))
	if err != nil {
		log.Fatal(err)
	}
	sys, err := core.New(
		core.WithSeed(23),
		core.WithNetwork(net),
		core.WithOverlaySize(192),
		core.WithLandmarks(8),
		core.WithProbeBudget(8),
	)
	if err != nil {
		log.Fatal(err)
	}
	members := sys.Members()
	watcher := members[0]

	// Find a member in the watcher's own high-order zone to depend on.
	region := watcher.Path().Prefix(sys.Overlay().DigitLen())
	var neighbor *can.Member
	for _, m := range members[1:] {
		if m.Path().HasPrefix(region) {
			neighbor = m
			break
		}
	}
	if neighbor == nil {
		log.Fatal("no neighbor in region; rerun with a larger overlay")
	}

	// The neighbor publishes a capacity of 10 units.
	if err := sys.Store().PublishMeasured(neighbor, softstate.WithCapacity(10)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("watcher host%d routes through neighbor host%d (capacity 10)\n",
		watcher.Host, neighbor.Host)

	// QoS subscription: notify at 80% utilization.
	alerts := 0
	sub, err := sys.OnOverload(watcher, neighbor, 0.8, func(n pubsub.Notification) {
		alerts++
		e := n.Event.Entry
		fmt.Printf("  ALERT: host%d at %.0f%% of capacity -> re-selecting neighbors\n",
			e.Host, 100*e.Load/e.Capacity)
		sys.Reselect(watcher)
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Bus().Unsubscribe(sub)

	// Load ramps up; the soft-state publishes each change (§6: "a node
	// periodically publishes these statistics along with its proximity
	// information").
	fmt.Println("neighbor load ramping up:")
	for _, load := range []float64{2, 4, 6, 7.5, 8.5, 9.5} {
		fmt.Printf("  load -> %.1f/10\n", load)
		sys.PublishLoad(neighbor, load)
	}
	fmt.Printf("\nalerts delivered: %d (first at the 80%% threshold crossing)\n", alerts)
	fmt.Printf("notification messages metered: %d\n", sys.Env().Messages("notify"))

	// After re-selection the watcher still routes fine.
	r, err := sys.RouteTo(watcher, members[len(members)-1])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("post-alert route: %d hops, stretch %.2f\n", r.Hops, r.Stretch)
}
