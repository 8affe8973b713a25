package e2e

import (
	"log/slog"
	"testing"
	"time"

	"gsso/internal/cluster"
	"gsso/internal/monitor"
	"gsso/internal/wire"
)

// TestE2EChaosSelfHealing is the `make e2e` gate: a five-node cluster
// of real overlayd processes, every inter-node link through a fault
// proxy, put through a seeded two-wave fault schedule — a kill -9 wave
// (two victims, restarted by the supervisor under backoff) followed by
// an asymmetric one-way partition that also severs established
// connections. After the last wave the cluster must heal by itself:
// every node ready again, every member's record back at full
// replication on exactly its ring owners, no orphans — within a
// recovery budget of a few refresh intervals plus one TTL (stale
// copies from pre-crash incarnations must expire, restarted nodes must
// rejoin and republish, breakers must close). Deterministic inputs
// (seeded victim selection, seeded proxies, seeded restart jitter);
// convergence is polled, never slept for.
func TestE2EChaosSelfHealing(t *testing.T) {
	requireE2E(t)
	const (
		refresh  = time.Second
		ttl      = 4 * time.Second
		recovery = 20 * refresh // K refresh intervals; covers TTL expiry of stale copies
	)
	spec := cluster.Spec{
		Nodes:              5,
		Landmarks:          3,
		Replicas:           2,
		TTL:                cluster.Duration(ttl),
		Refresh:            cluster.Duration(refresh),
		Timeout:            cluster.Duration(time.Second),
		JoinRetry:          cluster.Duration(300 * time.Millisecond),
		DrainTimeout:       cluster.Duration(2 * time.Second),
		RestartBackoffBase: cluster.Duration(300 * time.Millisecond),
		RestartBackoffMax:  cluster.Duration(2 * time.Second),
		TraceSample:        0,
		Proxied:            true,
		Seed:               7,
		BootTimeout:        cluster.Duration(60 * time.Second),
	}
	sup := startCluster(t, spec)
	ck := newChecker(t, sup)
	if err := ck.WaitConverged(45*time.Second, time.Second); err != nil {
		t.Fatalf("cluster never converged after bootstrap: %v", err)
	}
	t.Log("baseline converged; unleashing the schedule")

	// The partition victim is the busiest shard owner, not a random
	// node: with near-zero localhost RTTs every record derives the same
	// landmark number, so the whole cluster's records pile onto a
	// couple of ring owners — a randomly drawn victim may carry no
	// traffic at all, and cutting it would prove nothing. Cutting the
	// fattest shard guarantees refresh stores hit the partition (and
	// fail over to the surviving replica) while it holds.
	busiest, most := 0, -1
	for j, addr := range sup.NodeAddrs() {
		resp, err := ck.observer.Transport().RoundTrip(addr, wire.Message{Type: wire.MsgQuery, Max: 1 << 20}, time.Second)
		if err != nil || resp.Type != wire.MsgRecords {
			t.Fatalf("enumerate node %d: %v (response %q)", j, err, resp.Type)
		}
		if len(resp.Records) > most {
			busiest, most = j, len(resp.Records)
		}
	}
	t.Logf("partition victim: node %d (%d records)", busiest, most)

	sched := Schedule{
		Seed: 7,
		Steps: []Step{
			{Kind: StepKill, Count: 2, Settle: cluster.Duration(2 * time.Second)},
			{Kind: StepPartition, Victims: []int{busiest}, Mode: "to-backend",
				KillEstablished: true, Hold: cluster.Duration(3 * refresh)},
		},
	}
	if err := sched.Run(sup, slog.Default()); err != nil {
		t.Fatalf("schedule replay: %v", err)
	}

	// Self-healing: recall, replication, ownership and readiness all
	// recover within the budget, with no hand-holding from the test.
	if err := ck.WaitConverged(recovery, time.Second); err != nil {
		t.Fatalf("cluster did not self-heal within %v of the last wave: %v", recovery, err)
	}

	// The faults must actually have bitten: the kill wave restarted two
	// nodes, and the partition severed or swallowed real connections.
	// The supervisor's liveness watcher flips a restarted node back to
	// running asynchronously, so the state check polls briefly instead
	// of racing it.
	restarts := 0
	stateDeadline := time.Now().Add(5 * time.Second)
	for {
		restarts = 0
		running := 0
		for _, st := range sup.Status() {
			restarts += st.Restarts
			if st.State == cluster.StateRunning {
				running++
			}
		}
		if running == spec.Nodes {
			break
		}
		if time.Now().After(stateDeadline) {
			t.Fatalf("not all nodes running after recovery: %+v", sup.Status())
		}
		time.Sleep(50 * time.Millisecond)
	}
	if restarts < 2 {
		t.Fatalf("kill wave left only %d restarts; expected >= 2", restarts)
	}
	var cut int64
	for i := 0; i < spec.Nodes; i++ {
		proxy := sup.ProxyOf(i)
		if got := proxy.Partition(); got != wire.PartitionOff {
			t.Errorf("node %d proxy still partitioned (%v) after heal", i, got)
		}
		cut += proxy.Partitioned() + proxy.Killed()
	}
	if cut == 0 {
		t.Fatal("partition wave touched no connection; the cut never bit")
	}

	// And the monitoring surface agrees with the wire-level truth.
	view := monitor.BuildView(monitor.ScrapeAll(sup.MetricsAddrs(), 2*time.Second), 5)
	if view.Healthy != spec.Nodes || view.Ready != spec.Nodes {
		t.Fatalf("overlaymon disagrees: healthy=%d ready=%d want %d/%d",
			view.Healthy, view.Ready, spec.Nodes, spec.Nodes)
	}
	if view.TotalRecords < float64(spec.Nodes) {
		t.Fatalf("snapshot shows %.0f records; want >= %d", view.TotalRecords, spec.Nodes)
	}
	t.Logf("healed: %d restarts, %d connections cut, %.0f records on %d nodes",
		restarts, cut, view.TotalRecords, view.CoverageNodes)
}
