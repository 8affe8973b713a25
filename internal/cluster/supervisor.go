package cluster

import (
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"gsso/internal/wire"
)

// newBackoffRNG seeds the restart-jitter stream; a fixed spec seed
// replays the same backoff schedule.
func newBackoffRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// NodeState is the supervisor's view of one node's process.
type NodeState string

const (
	// StateStarting: the process was launched but liveness has not been
	// observed yet (initial boot or post-restart).
	StateStarting NodeState = "starting"
	// StateRunning: the process is up and its metrics listener answered
	// /healthz at least once since the last (re)start.
	StateRunning NodeState = "running"
	// StateBackoff: the process exited and the supervisor is waiting
	// out the restart backoff.
	StateBackoff NodeState = "backoff"
	// StateStopped: the process exited and will not be restarted
	// (supervisor stopping, or auto-restart disabled for the node).
	StateStopped NodeState = "stopped"
	// StateRemoved: the node was drained out of the membership by
	// Remove and will never run again; its row stays in Status so
	// indices remain stable.
	StateRemoved NodeState = "removed"
)

// NodeStatus is a point-in-time snapshot of one supervised node.
type NodeStatus struct {
	Index       int       `json:"index"`
	OverlayAddr string    `json:"overlay_addr"`
	DialAddr    string    `json:"dial_addr"`
	MetricsAddr string    `json:"metrics_addr"`
	PID         int       `json:"pid"`
	State       NodeState `json:"state"`
	Restarts    int       `json:"restarts"`
	Streak      int       `json:"streak,omitempty"`
	LogPath     string    `json:"log"`
}

// proc is one supervised overlayd process. overlayAddr is the real
// bind address; dialAddr is what peers dial — the fault proxy when the
// cluster is proxied, the bind address otherwise. Both are reserved up
// front and survive restarts, so the baked peer lists stay valid.
type proc struct {
	index       int
	overlayAddr string
	metricsAddr string
	dialAddr    string
	proxy       *wire.FaultProxy
	logPath     string

	mu        sync.Mutex
	cmd       *exec.Cmd
	done      chan struct{} // closed when the current process exits
	monDone   chan struct{} // closed when the current monitor goroutine retires
	state     NodeState
	restarts  int       // lifetime crash-restart count, reported in Status
	streak    int       // consecutive crashes without a healthy-uptime window; drives backoff
	startedAt time.Time // launch time of the current incarnation
	restart   bool      // auto-restart on unexpected exit
	removed   bool      // drained out of the membership; never runs again
}

func (p *proc) setState(st NodeState) {
	p.mu.Lock()
	p.state = st
	p.mu.Unlock()
}

func (p *proc) autoRestart() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.restart
}

func (p *proc) isRemoved() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.removed
}

// Supervisor runs and babysits the cluster described by its Spec.
// Membership is dynamic: Add and Remove grow and shrink the fleet at
// runtime, pushing the new peer list to every live node over the
// overlayd admin endpoint, and RollingRestart cycles every node one at
// a time behind a fleet-readiness barrier.
type Supervisor struct {
	spec   Spec
	logger *slog.Logger
	runDir string
	lms    []string // landmark dial addresses, fixed at boot

	// pmu guards procs and peers. procs is append-only (removed nodes
	// keep their row so indices stay stable); peers is the current
	// membership's dial addresses.
	pmu   sync.Mutex
	procs []*proc
	peers []string

	// opMu serializes membership operations (Add, Remove,
	// RollingRestart) so concurrent admin calls cannot interleave
	// half-applied peer lists.
	opMu sync.Mutex

	stopOnce sync.Once
	stopping chan struct{}
	wg       sync.WaitGroup

	rngMu sync.Mutex
	rng   *rand.Rand
}

// snapshot returns the current proc slice under the lock; the slice is
// append-only, so iterating the returned value is safe.
func (s *Supervisor) snapshot() []*proc {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	return s.procs
}

// procAt bounds-checks i and returns its proc.
func (s *Supervisor) procAt(i int) (*proc, error) {
	procs := s.snapshot()
	if i < 0 || i >= len(procs) {
		return nil, fmt.Errorf("node %d out of range [0, %d)", i, len(procs))
	}
	return procs[i], nil
}

// New validates the spec, reserves every address the cluster will ever
// bind (overlay + metrics per node), and — when the spec is proxied —
// starts one FaultProxy per node so that all inter-node links are
// cuttable. No process is started until Start.
func New(spec Spec, logger *slog.Logger) (*Supervisor, error) {
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	runDir := spec.RunDir
	if runDir == "" {
		dir, err := os.MkdirTemp("", "gsso-cluster-")
		if err != nil {
			return nil, err
		}
		runDir = dir
	} else if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}

	addrs, err := ReserveAddrs(2 * spec.Nodes)
	if err != nil {
		return nil, err
	}
	s := &Supervisor{
		spec:     spec,
		logger:   logger,
		runDir:   runDir,
		stopping: make(chan struct{}),
		rng:      newBackoffRNG(spec.Seed),
	}
	for i := 0; i < spec.Nodes; i++ {
		p := &proc{
			index:       i,
			overlayAddr: addrs[2*i],
			metricsAddr: addrs[2*i+1],
			dialAddr:    addrs[2*i],
			logPath:     filepath.Join(runDir, fmt.Sprintf("node-%d.log", i)),
			restart:     true,
			state:       StateStopped,
		}
		if spec.Proxied {
			proxy, err := wire.NewFaultProxy(p.overlayAddr, spec.Seed+uint64(i))
			if err != nil {
				for _, q := range s.procs {
					q.proxy.Close()
				}
				return nil, fmt.Errorf("proxy for node %d: %w", i, err)
			}
			p.proxy = proxy
			p.dialAddr = proxy.Addr()
		}
		s.procs = append(s.procs, p)
		s.peers = append(s.peers, p.dialAddr)
	}
	// Clone: peers is rewritten on membership changes and must not
	// share a backing array with the fixed landmark list.
	s.lms = append([]string(nil), s.peers[:spec.Landmarks]...)
	return s, nil
}

// Start launches the cluster with a readiness-gated rolling bootstrap:
// each node must turn LIVE (its metrics listener answers /healthz)
// before the next one is launched, and once every process is up the
// whole cluster must turn READY (/readyz 200 on every node) within the
// boot timeout. Gating the roll on liveness rather than readiness is
// deliberate: a landmark node cannot finish its initial publish until
// the other landmarks exist, so waiting for full readiness one node at
// a time would deadlock — -join-retry keeps early nodes retrying while
// the rest of the cluster comes up.
//
// On any bootstrap error the caller still owns cleanup: call Stop.
func (s *Supervisor) Start() error {
	for _, p := range s.snapshot() {
		if err := s.startProcess(p); err != nil {
			return fmt.Errorf("node %d: %w", p.index, err)
		}
		s.startMonitor(p)
		if err := s.waitProbe(p.metricsAddr, "/healthz", s.spec.BootTimeout.D()); err != nil {
			return fmt.Errorf("node %d never turned live: %w", p.index, err)
		}
		p.setState(StateRunning)
		s.logger.Info("node-live", "node", p.index, "addr", p.overlayAddr)
	}
	if err := s.WaitAllReady(s.spec.BootTimeout.D()); err != nil {
		return err
	}
	s.logger.Info("cluster-ready", "nodes", len(s.snapshot()))
	return nil
}

// startProcess launches node i's overlayd, appending its output to the
// node's log file (append mode, so restarts extend one continuous log).
func (s *Supervisor) startProcess(p *proc) error {
	logf, err := os.OpenFile(p.logPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	p.mu.Lock()
	attempt := p.restarts
	p.mu.Unlock()
	fmt.Fprintf(logf, "--- supervisor: start node %d (attempt %d) %s ---\n",
		p.index, attempt+1, time.Now().UTC().Format(time.RFC3339))
	cmd := exec.Command(s.spec.Binary, s.nodeArgs(p)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return err
	}
	logf.Close() // the child holds its own descriptor
	done := make(chan struct{})
	p.mu.Lock()
	p.cmd = cmd
	p.done = done
	p.state = StateStarting
	p.startedAt = time.Now()
	p.mu.Unlock()
	s.logger.Info("node-started", "node", p.index, "pid", cmd.Process.Pid,
		"addr", p.overlayAddr, "metrics", p.metricsAddr)
	return nil
}

// nodeArgs builds one node's command line. Every node publishes: the
// harness's invariants are about everyone's record being findable.
// The peer list is read at call time, so a node restarted after a
// membership change rejoins with the current ring, not the boot one.
func (s *Supervisor) nodeArgs(p *proc) []string {
	s.pmu.Lock()
	peers := strings.Join(s.peers, ",")
	s.pmu.Unlock()
	args := []string{
		"-listen", p.overlayAddr,
		"-metrics", p.metricsAddr,
		"-peers", peers,
		"-landmarks", strings.Join(s.lms, ","),
		"-publish",
		"-ttl", s.spec.TTL.String(),
		"-timeout", s.spec.Timeout.String(),
		"-replicas", strconv.Itoa(s.spec.Replicas),
		"-join-retry", s.spec.JoinRetry.String(),
		"-drain-timeout", s.spec.DrainTimeout.String(),
		"-trace-sample", strconv.Itoa(s.spec.TraceSample),
	}
	if s.spec.Refresh > 0 {
		args = append(args, "-refresh", s.spec.Refresh.String())
	}
	return append(args, s.spec.ExtraArgs...)
}

// startMonitor spawns the crash/restart loop for p's current
// incarnation and arms monDone so drains (Remove, Restart) can wait
// for the loop to retire before relaunching the node themselves.
func (s *Supervisor) startMonitor(p *proc) {
	monDone := make(chan struct{})
	p.mu.Lock()
	p.monDone = monDone
	p.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer close(monDone)
		s.monitor(p)
	}()
}

// monitor owns one node's crash/restart loop: it waits for the current
// process to exit, and unless the supervisor is stopping (or restarts
// are disabled for the node) relaunches it after a capped, jittered
// backoff. Two counters diverge here: restarts is the node's lifetime
// crash count (reported in Status, never reset), while streak drives
// the backoff and resets once an incarnation survives the spec's
// BackoffResetAfter window — a node that crashed five times last week
// but has been healthy since should not wait out the max delay for
// today's one-off crash.
func (s *Supervisor) monitor(p *proc) {
	defer s.wg.Done()
	for {
		p.mu.Lock()
		cmd, done := p.cmd, p.done
		p.mu.Unlock()
		err := cmd.Wait()
		close(done)
		status := "exit 0"
		if err != nil {
			status = err.Error()
		}
		if s.isStopping() || !p.autoRestart() {
			p.setState(StateStopped)
			s.logger.Info("node-stopped", "node", p.index, "status", status)
			return
		}
		p.mu.Lock()
		p.restarts++
		p.streak = s.nextStreak(p.streak, time.Since(p.startedAt))
		n := p.streak
		lifetime := p.restarts
		p.state = StateBackoff
		p.mu.Unlock()
		delay := s.backoff(n)
		s.logger.Warn("node-exited", "node", p.index, "status", status,
			"restarts", lifetime, "streak", n, "restart_in", delay)
		for {
			select {
			case <-s.stopping:
				p.setState(StateStopped)
				return
			case <-time.After(delay):
			}
			if err := s.startProcess(p); err == nil {
				p.mu.Lock()
				restartDone := p.done
				p.mu.Unlock()
				go s.markLiveWhenProbed(p, restartDone)
				break
			} else {
				// Relaunch failed (binary unlinked, fd pressure, ...): keep
				// backing off rather than abandoning the node.
				p.mu.Lock()
				p.restarts++
				p.streak++
				n = p.streak
				p.mu.Unlock()
				delay = s.backoff(n)
				s.logger.Error("node-restart-failed", "node", p.index,
					"err", err, "retry_in", delay)
			}
		}
	}
}

// nextStreak advances the consecutive-crash counter that drives the
// restart backoff: an incarnation that stayed up at least the spec's
// BackoffResetAfter window earned a clean slate, so its crash counts
// as the first of a new streak rather than extending the old one.
func (s *Supervisor) nextStreak(streak int, uptime time.Duration) int {
	if uptime >= s.spec.BackoffResetAfter.D() {
		return 1
	}
	return streak + 1
}

// markLiveWhenProbed flips a restarted node back to StateRunning once
// its metrics listener answers /healthz — but only if the node is
// still on the same process incarnation (done matches) and still
// starting; a re-crash during the probe wins.
func (s *Supervisor) markLiveWhenProbed(p *proc, done chan struct{}) {
	if err := s.waitProbe(p.metricsAddr, "/healthz", s.spec.BootTimeout.D()); err != nil {
		return
	}
	p.mu.Lock()
	if p.done == done && p.state == StateStarting {
		p.state = StateRunning
	}
	p.mu.Unlock()
}

// backoff returns the nth restart delay: base·2^(n-1) capped at max,
// with jitter drawn from the seeded rng so the second half of the
// interval is randomized (d/2 + U[0, d/2)) — crashed nodes do not
// thunder back in lockstep, but a fixed seed replays the same run.
func (s *Supervisor) backoff(n int) time.Duration {
	d := s.spec.RestartBackoffBase.D()
	maxD := s.spec.RestartBackoffMax.D()
	for i := 1; i < n && d < maxD; i++ {
		d *= 2
	}
	if d > maxD {
		d = maxD
	}
	s.rngMu.Lock()
	jittered := d/2 + time.Duration(s.rng.Int64N(int64(d/2)+1))
	s.rngMu.Unlock()
	return jittered
}

func (s *Supervisor) isStopping() bool {
	select {
	case <-s.stopping:
		return true
	default:
		return false
	}
}

// Kill delivers SIGKILL to node i's current process — the chaos
// harness's crash primitive. The monitor notices the exit and, if
// auto-restart is on, relaunches the node on the same addresses.
func (s *Supervisor) Kill(i int) error {
	p, err := s.procAt(i)
	if err != nil {
		return err
	}
	p.mu.Lock()
	cmd := p.cmd
	p.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return fmt.Errorf("node %d has no process", i)
	}
	return cmd.Process.Kill()
}

// Signal delivers sig to node i's current process (e.g. SIGTERM for a
// graceful drain the caller wants to observe without stopping the
// whole cluster — pair with SetAutoRestart(i, false) first).
func (s *Supervisor) Signal(i int, sig os.Signal) error {
	p, err := s.procAt(i)
	if err != nil {
		return err
	}
	p.mu.Lock()
	cmd := p.cmd
	p.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return fmt.Errorf("node %d has no process", i)
	}
	return cmd.Process.Signal(sig)
}

// SetAutoRestart toggles crash-restart for node i.
func (s *Supervisor) SetAutoRestart(i int, on bool) {
	p, err := s.procAt(i)
	if err != nil {
		return
	}
	p.mu.Lock()
	p.restart = on
	p.mu.Unlock()
}

// WaitExit blocks until node i's current process exits, or the timeout
// lapses. It snapshots the done channel first, so a restart that races
// in does not extend the wait.
func (s *Supervisor) WaitExit(i int, timeout time.Duration) error {
	p, err := s.procAt(i)
	if err != nil {
		return err
	}
	p.mu.Lock()
	done := p.done
	p.mu.Unlock()
	if done == nil {
		return nil
	}
	select {
	case <-done:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("node %d still running after %v", i, timeout)
	}
}

// Stop shuts the cluster down gracefully and idempotently: SIGTERM to
// every process in parallel (each overlayd withdraws its soft-state
// within its -drain-timeout), escalate to SIGKILL on any node that
// outlives the drain budget plus slack, then reap the monitors and
// close the fault proxies.
func (s *Supervisor) Stop() {
	s.stopOnce.Do(func() {
		close(s.stopping)
		procs := s.snapshot()
		var wg sync.WaitGroup
		for _, p := range procs {
			wg.Add(1)
			go func(p *proc) {
				defer wg.Done()
				s.stopProc(p)
			}(p)
		}
		wg.Wait()
		s.wg.Wait()
		for _, p := range procs {
			if p.proxy != nil {
				p.proxy.Close()
			}
		}
		s.logger.Info("cluster-stopped", "run_dir", s.runDir)
	})
}

func (s *Supervisor) stopProc(p *proc) {
	p.mu.Lock()
	cmd, done := p.cmd, p.done
	p.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return
	}
	// Signal on an already-reaped process returns ErrProcessDone — safe.
	_ = cmd.Process.Signal(syscall.SIGTERM)
	grace := s.spec.DrainTimeout.D() + 3*time.Second
	select {
	case <-done:
	case <-time.After(grace):
		s.logger.Warn("drain-timeout", "node", p.index, "grace", grace)
		_ = cmd.Process.Kill()
		<-done
	}
}

// waitProbe polls http://addr+path until it answers 200 or the timeout
// lapses, carrying the last failure in the returned error.
func (s *Supervisor) waitProbe(addr, path string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last error
	for time.Now().Before(deadline) {
		if last = probe(addr, path, time.Second); last == nil {
			return nil
		}
		select {
		case <-s.stopping:
			return fmt.Errorf("supervisor stopping")
		case <-time.After(50 * time.Millisecond):
		}
	}
	return fmt.Errorf("%s%s: %w", addr, path, last)
}

func probe(addr, path string, timeout time.Duration) error {
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get("http://" + addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s (%s)", resp.Status, strings.TrimSpace(string(body)))
	}
	return nil
}

// WaitAllReady blocks until every active node's /readyz answers 200,
// naming the stragglers (with their last not-ready reason) on timeout.
// Removed nodes are skipped: they are not members anymore.
func (s *Supervisor) WaitAllReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		var pending []string
		for _, p := range s.snapshot() {
			if p.isRemoved() {
				continue
			}
			if err := probe(p.metricsAddr, "/readyz", time.Second); err != nil {
				pending = append(pending, fmt.Sprintf("node %d: %v", p.index, err))
			}
		}
		if len(pending) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster not ready after %v: %s", timeout, strings.Join(pending, "; "))
		}
		select {
		case <-s.stopping:
			return fmt.Errorf("supervisor stopping")
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// WaitReady blocks until node i's /readyz answers 200.
func (s *Supervisor) WaitReady(i int, timeout time.Duration) error {
	p, err := s.procAt(i)
	if err != nil {
		return err
	}
	return s.waitProbe(p.metricsAddr, "/readyz", timeout)
}

// Spec returns the normalized spec the supervisor runs.
func (s *Supervisor) Spec() Spec { return s.spec }

// RunDir returns the directory holding per-node logs.
func (s *Supervisor) RunDir() string { return s.runDir }

// NodeAddrs returns the dial address of every active node — the proxy
// addresses when the cluster is proxied. This is exactly the current
// membership the nodes themselves hold, so ring ownership computed
// against it matches the cluster's.
func (s *Supervisor) NodeAddrs() []string {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	return append([]string(nil), s.peers...)
}

// ActiveIndices returns the indices of nodes that are still cluster
// members, in index order. Removed nodes keep their Status rows but
// are excluded here.
func (s *Supervisor) ActiveIndices() []int {
	var out []int
	for _, p := range s.snapshot() {
		if !p.isRemoved() {
			out = append(out, p.index)
		}
	}
	return out
}

// OverlayAddr returns node i's real bind address (behind the proxy).
func (s *Supervisor) OverlayAddr(i int) string {
	p, err := s.procAt(i)
	if err != nil {
		return ""
	}
	return p.overlayAddr
}

// MetricsAddrs returns every active node's metrics address in index
// order; removed nodes are excluded, so the list always scrapes clean.
func (s *Supervisor) MetricsAddrs() []string {
	var out []string
	for _, p := range s.snapshot() {
		if !p.isRemoved() {
			out = append(out, p.metricsAddr)
		}
	}
	return out
}

// ProxyOf returns node i's fault proxy (nil when the cluster is not
// proxied). Partitioning it cuts node i off asymmetrically or fully,
// depending on the mode — every other node dials i through it.
func (s *Supervisor) ProxyOf(i int) *wire.FaultProxy {
	p, err := s.procAt(i)
	if err != nil {
		return nil
	}
	return p.proxy
}

// Status snapshots every node's supervision state, removed rows
// included (indices are stable for the cluster's lifetime).
func (s *Supervisor) Status() []NodeStatus {
	procs := s.snapshot()
	out := make([]NodeStatus, len(procs))
	for i, p := range procs {
		p.mu.Lock()
		st := NodeStatus{
			Index:       p.index,
			OverlayAddr: p.overlayAddr,
			DialAddr:    p.dialAddr,
			MetricsAddr: p.metricsAddr,
			State:       p.state,
			Restarts:    p.restarts,
			Streak:      p.streak,
			LogPath:     p.logPath,
		}
		if p.removed {
			st.State = StateRemoved
		}
		if p.cmd != nil && p.cmd.Process != nil {
			st.PID = p.cmd.Process.Pid
		}
		p.mu.Unlock()
		out[i] = st
	}
	return out
}
