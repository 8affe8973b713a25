package e2e

import (
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"gsso/internal/cluster"
	"gsso/internal/wire"
)

// TestDrainRealProcess proves graceful departure against real
// processes (not the simulator, not in-process nodes): SIGTERM a
// member and its record must be gone from every surviving ring owner
// BEFORE the process exits. The TTL is a full minute, so absence can
// only mean the drain's Withdraw ran — soft-state expiry could not
// have cleaned up this fast. This is the §5.2 proactive-departure
// contract, end to end. It runs ungated (no E2E=1): three small
// daemons for a few seconds is tier-1-cheap.
func TestDrainRealProcess(t *testing.T) {
	spec := cluster.Spec{
		Nodes:        3,
		Replicas:     2,
		TTL:          cluster.Duration(time.Minute),
		Timeout:      cluster.Duration(2 * time.Second),
		JoinRetry:    cluster.Duration(200 * time.Millisecond),
		DrainTimeout: cluster.Duration(3 * time.Second),
		TraceSample:  0,
		BootTimeout:  cluster.Duration(60 * time.Second),
	}
	sup := startCluster(t, spec)
	ck := newChecker(t, sup)
	if err := ck.WaitConverged(30*time.Second, 2*time.Second); err != nil {
		t.Fatalf("cluster never converged after bootstrap: %v", err)
	}

	const victim = 2
	victimAddr := sup.OverlayAddr(victim)
	sup.SetAutoRestart(victim, false)
	if err := sup.Signal(victim, syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := sup.WaitExit(victim, 10*time.Second); err != nil {
		t.Fatalf("victim did not exit within the drain budget: %v", err)
	}

	// The process is dead; enumerate every survivor's shard right now.
	// With a one-minute TTL, a lingering copy of the victim's record
	// would sit here for ~57 more seconds if the drain had not removed
	// it — absence is proof of withdrawal, not of expiry.
	tr := ck.observer.Transport()
	for j, addr := range sup.NodeAddrs() {
		if j == victim {
			continue
		}
		resp, err := tr.RoundTrip(addr, wire.Message{Type: wire.MsgQuery, Max: 1 << 20}, 2*time.Second)
		if err != nil || resp.Type != wire.MsgRecords {
			t.Fatalf("enumerate survivor %d: %v (response %q)", j, err, resp.Type)
		}
		survivors := 0
		for _, rec := range resp.Records {
			if rec.Addr == victimAddr {
				t.Fatalf("drain failed: node %d still holds the victim's record %+v", j, rec)
			}
			survivors++
		}
		t.Logf("survivor %d holds %d records, none for the victim", j, survivors)
	}

	// The survivors' own records must still be findable (at least one
	// copy each — the victim may have held one of the two replicas, and
	// the next refresh re-heals that).
	found := map[string]int{}
	for j, addr := range sup.NodeAddrs() {
		if j == victim {
			continue
		}
		resp, err := tr.RoundTrip(addr, wire.Message{Type: wire.MsgQuery, Max: 1 << 20}, 2*time.Second)
		if err != nil || resp.Type != wire.MsgRecords {
			t.Fatalf("enumerate survivor %d: %v (response %q)", j, err, resp.Type)
		}
		for _, rec := range resp.Records {
			found[rec.Addr]++
		}
	}
	for j := 0; j < spec.Nodes; j++ {
		if j == victim {
			continue
		}
		if found[sup.OverlayAddr(j)] == 0 {
			t.Fatalf("survivor %d's record vanished with the drained node", j)
		}
	}

	// The victim's own log must show the drain path, and the supervisor
	// must have honored the no-restart toggle.
	raw, err := os.ReadFile(sup.Status()[victim].LogPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "msg=drained") {
		t.Fatalf("victim log lacks the drained marker:\n%s", raw)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := sup.Status()[victim]
		if st.State == cluster.StateStopped && st.Restarts == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim not marked stopped without restarts: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
