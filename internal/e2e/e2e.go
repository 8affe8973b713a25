// Package e2e proves self-healing outside the simulator: it replays
// netsim.FaultPlan-style schedules — crash waves and (asymmetric)
// partitions — against a live cluster of real overlayd processes run
// by internal/cluster, then asserts the soft-state invariants the
// paper promises from a client's vantage point: every member's record
// is findable with full replication on exactly its ring owners, no
// orphan records survive, and the cluster reports ready end to end.
//
// Kill steps go through the supervisor (SIGKILL, restart under
// backoff); partition steps go through each node's wire.FaultProxy, so
// links are cut on the wire without touching the processes; membership
// steps (add, remove, rolling-restart) drive the supervisor's live
// reconfiguration surface, swapping rings on a running fleet. The same
// Schedule type powers `overlayctl -chaos` and the `make e2e` gate.
package e2e

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"gsso/internal/cluster"
	"gsso/internal/wire"
)

// StepKind names one fault primitive.
type StepKind string

const (
	// StepKill delivers SIGKILL to each victim; the supervisor restarts
	// them under backoff (the churn-wave analogue of netsim.ChurnWave).
	StepKill StepKind = "kill"
	// StepPartition cuts each victim's fault proxy for Hold, then lifts
	// the cut (the analogue of netsim.PartitionWindow).
	StepPartition StepKind = "partition"
	// StepAdd grows the cluster by Count (default 1) fresh nodes; each
	// boots with the enlarged membership, which is pushed live to every
	// incumbent — no process restarts.
	StepAdd StepKind = "add"
	// StepRemove drains each victim out of the membership; when Victims
	// is empty, Count victims are sampled from the removable set (active
	// non-landmark nodes).
	StepRemove StepKind = "remove"
	// StepRollingRestart cycles every active node, one at a time,
	// behind the fleet readiness barrier.
	StepRollingRestart StepKind = "rolling-restart"
)

// Step is one entry in a fault schedule. Victims are node indices;
// when empty, Count victims are sampled from the schedule's seeded rng
// stream, so a fixed seed replays the same cast.
type Step struct {
	Kind    StepKind `json:"kind"`
	Victims []int    `json:"victims,omitempty"`
	Count   int      `json:"count,omitempty"`

	// Partition steps only: Mode is "both", "to-backend" or
	// "from-backend" (the asymmetric one-way cuts), KillEstablished
	// also severs connections already in flight, and Hold is how long
	// the cut stays up before it is lifted.
	Mode            string           `json:"mode,omitempty"`
	KillEstablished bool             `json:"kill_established,omitempty"`
	Hold            cluster.Duration `json:"hold,omitempty"`

	// Settle pauses after the step completes, before the next one.
	Settle cluster.Duration `json:"settle,omitempty"`
}

// Schedule is a replayable fault schedule against a live cluster.
type Schedule struct {
	Seed  uint64 `json:"seed"`
	Steps []Step `json:"steps"`
}

// LoadSchedule reads a JSON fault schedule from disk (the overlayctl
// -chaos input).
func LoadSchedule(path string) (Schedule, error) {
	var sc Schedule
	raw, err := os.ReadFile(path)
	if err != nil {
		return sc, err
	}
	if err := json.Unmarshal(raw, &sc); err != nil {
		return sc, fmt.Errorf("schedule %s: %w", path, err)
	}
	return sc, nil
}

// ParsePartitionMode maps a schedule's mode string onto the proxy's
// partition modes; empty defaults to a full cut.
func ParsePartitionMode(s string) (wire.PartitionMode, error) {
	switch s {
	case "", "both":
		return wire.PartitionBoth, nil
	case "to-backend":
		return wire.PartitionToBackend, nil
	case "from-backend":
		return wire.PartitionFromBackend, nil
	default:
		return wire.PartitionOff, fmt.Errorf("unknown partition mode %q", s)
	}
}

// Run replays the schedule against a supervised cluster, in order,
// one step at a time. Partition steps require a proxied cluster.
// Victim sampling draws from the cluster's current active membership,
// so a schedule that adds or removes nodes keeps aiming at real ones.
func (sc Schedule) Run(sup *cluster.Supervisor, logger *slog.Logger) error {
	if logger == nil {
		logger = slog.Default()
	}
	rng := rand.New(rand.NewPCG(sc.Seed, sc.Seed^0xda3e39cb94b95bdb))
	for i, step := range sc.Steps {
		active := sup.ActiveIndices()
		victims := step.Victims
		if len(victims) == 0 && (step.Kind == StepKill || step.Kind == StepPartition) {
			victims = sampleFrom(rng, active, step.Count)
		}
		switch step.Kind {
		case StepKill:
			for _, v := range victims {
				logger.Info("chaos-kill", "step", i, "node", v)
				if err := sup.Kill(v); err != nil {
					return fmt.Errorf("step %d: kill node %d: %w", i, v, err)
				}
			}
		case StepAdd:
			count := step.Count
			if count < 1 {
				count = 1
			}
			for j := 0; j < count; j++ {
				idx, err := sup.Add()
				if err != nil {
					return fmt.Errorf("step %d: add: %w", i, err)
				}
				logger.Info("chaos-add", "step", i, "node", idx)
			}
		case StepRemove:
			if len(victims) == 0 {
				var removable []int
				for _, v := range active {
					if v >= sup.Spec().Landmarks {
						removable = append(removable, v)
					}
				}
				victims = sampleFrom(rng, removable, step.Count)
			}
			for _, v := range victims {
				logger.Info("chaos-remove", "step", i, "node", v)
				if err := sup.Remove(v); err != nil {
					return fmt.Errorf("step %d: remove node %d: %w", i, v, err)
				}
			}
		case StepRollingRestart:
			logger.Info("chaos-rolling-restart", "step", i, "nodes", len(active))
			if err := sup.RollingRestart(); err != nil {
				return fmt.Errorf("step %d: rolling restart: %w", i, err)
			}
		case StepPartition:
			mode, err := ParsePartitionMode(step.Mode)
			if err != nil {
				return fmt.Errorf("step %d: %w", i, err)
			}
			for _, v := range victims {
				proxy := sup.ProxyOf(v)
				if proxy == nil {
					return fmt.Errorf("step %d: partition needs a proxied cluster (node %d)", i, v)
				}
				logger.Info("chaos-partition", "step", i, "node", v,
					"mode", mode, "kill_established", step.KillEstablished, "hold", step.Hold)
				proxy.SetPartition(mode, step.KillEstablished)
			}
			if step.Hold > 0 {
				time.Sleep(step.Hold.D())
			}
			for _, v := range victims {
				logger.Info("chaos-heal", "step", i, "node", v)
				sup.ProxyOf(v).SetPartition(wire.PartitionOff, false)
			}
		default:
			return fmt.Errorf("step %d: unknown kind %q", i, step.Kind)
		}
		if step.Settle > 0 {
			time.Sleep(step.Settle.D())
		}
	}
	return nil
}

// sampleFrom draws count distinct entries of pool from the rng stream.
func sampleFrom(rng *rand.Rand, pool []int, count int) []int {
	if count < 1 {
		count = 1
	}
	if count > len(pool) {
		count = len(pool)
	}
	perm := rng.Perm(len(pool))
	victims := make([]int, 0, count)
	for _, p := range perm[:count] {
		victims = append(victims, pool[p])
	}
	return victims
}

// Checker asserts cluster invariants from a client's vantage point.
// Its observer node never joins the overlay — it only mirrors the
// cluster's peer list, so ring ownership computed here is exactly what
// the cluster members compute (ownership derives from the sorted
// shared peer list, nothing else). Membership is dynamic: each pass
// re-reads the supervisor's active set, cross-checks it against the
// ring every live node actually serves (the membership RPC), and only
// then computes ownership — the checker never trusts the boot-time
// spec.
type Checker struct {
	sup      *cluster.Supervisor
	observer *wire.Node
}

// NewChecker builds a checker over a running cluster.
func NewChecker(sup *cluster.Supervisor) (*Checker, error) {
	stub := wire.SpaceConfig{Landmarks: []string{"observer"}, IndexDims: 1, BitsPerDim: 4, MaxRTTMs: 50}
	obsNode, err := wire.NewNode("127.0.0.1:0", stub, sup.NodeAddrs(), time.Minute)
	if err != nil {
		return nil, err
	}
	return &Checker{sup: sup, observer: obsNode}, nil
}

// Close releases the observer node.
func (c *Checker) Close() { c.observer.Close() }

// Converged makes one pass over the cluster and reports the first
// violated invariant:
//
//  1. every active node answers /readyz 200 (rejoined and
//     republishing);
//  2. every active node serves the supervisor's current membership
//     over the peers RPC — the whole fleet agrees on one ring;
//  3. enumerating every node's live shard, each record sits only on a
//     ring owner of its number under that live membership — no
//     orphans;
//  4. every active member's record is present with at least the
//     replication factor's worth of copies — full recall, replicas
//     intact. (A just-removed member's record may linger on its owners
//     until its TTL; it still counts as owned, not orphaned.)
//
// Stale copies published under a crashed incarnation's old number are
// tolerated until their TTL reaps them: they still sit on the correct
// owners for that number, and recall is asserted on copy counts, not
// exact totals.
func (c *Checker) Converged(timeout time.Duration) error {
	if err := c.sup.WaitAllReady(time.Second); err != nil {
		return err
	}
	active := c.sup.ActiveIndices()
	dial := c.sup.NodeAddrs()
	want := slices.Sorted(slices.Values(dial))
	tr := c.observer.Transport()
	// Fleet-wide ring agreement, fetched from the live nodes — never
	// assumed from the boot spec.
	for j, addr := range dial {
		resp, err := tr.RoundTrip(addr, wire.Message{Type: wire.MsgPeers}, timeout)
		if err != nil {
			return fmt.Errorf("fetch peers from node %d (%s): %w", active[j], addr, err)
		}
		if !slices.Equal(resp.Peers, want) {
			return fmt.Errorf("node %d serves ring %v; supervisor membership is %v",
				active[j], resp.Peers, want)
		}
	}
	// Ownership below is computed on that live membership.
	if _, err := c.observer.SetPeers(want, timeout); err != nil {
		return fmt.Errorf("observer ring swap: %w", err)
	}
	replicas := c.sup.Spec().Replicas
	if len(want) < replicas {
		replicas = len(want)
	}
	expectedSet := make(map[string]bool, len(active))
	for _, i := range active {
		expectedSet[c.sup.OverlayAddr(i)] = true
	}
	copies := make(map[string]int, len(active))
	for j, addr := range dial {
		resp, err := tr.RoundTrip(addr, wire.Message{Type: wire.MsgQuery, Max: 1 << 20}, timeout)
		if err != nil {
			return fmt.Errorf("enumerate node %d (%s): %w", active[j], addr, err)
		}
		for _, rec := range resp.Records {
			owners := c.observer.OwnersOf(rec.Number, replicas)
			if !slices.Contains(owners, addr) {
				return fmt.Errorf("orphan on node %d: record %s (number %d) owned by %v",
					active[j], rec.Addr, rec.Number, owners)
			}
			if !expectedSet[rec.Addr] {
				return fmt.Errorf("orphan on node %d: record for non-member addr %s",
					active[j], rec.Addr)
			}
			copies[rec.Addr]++
		}
	}
	for a := range expectedSet {
		if copies[a] < replicas {
			return fmt.Errorf("recall hole: %s has %d/%d replicas", a, copies[a], replicas)
		}
	}
	return nil
}

// WaitConverged polls Converged until it holds or the deadline lapses,
// returning the last violation.
func (c *Checker) WaitConverged(timeout, probeTimeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last error
	for {
		if last = c.Converged(probeTimeout); last == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not converged after %v: %w", timeout, last)
		}
		time.Sleep(250 * time.Millisecond)
	}
}

// OverlaydBinary builds cmd/overlayd once per process and returns the
// path. The build output lives in a throwaway temp directory; `go
// build` itself is cached, so repeat runs are cheap.
func OverlaydBinary() (string, error) {
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "gsso-e2e-bin-")
		if err != nil {
			buildErr = err
			return
		}
		builtPath = filepath.Join(dir, "overlayd")
		cmd := exec.Command("go", "build", "-o", builtPath, "gsso/cmd/overlayd")
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go build cmd/overlayd: %v\n%s", err, strings.TrimSpace(string(out)))
		}
	})
	return builtPath, buildErr
}

var (
	buildOnce sync.Once
	builtPath string
	buildErr  error
)
