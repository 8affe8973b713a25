package wire

import (
	"bufio"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gsso/internal/hilbert"
	"gsso/internal/landmark"
	"gsso/internal/obs"
	"gsso/internal/obs/span"
)

// SpaceConfig is the landmark-space contract every node of a deployment
// shares (the analogue of landmark.Space for the wire world).
type SpaceConfig struct {
	// Landmarks are the dialable addresses of the landmark nodes, in a
	// fixed order all nodes agree on.
	Landmarks []string
	// IndexDims is how many leading vector components feed the curve.
	IndexDims int
	// BitsPerDim is the per-axis grid resolution.
	BitsPerDim int
	// MaxRTTMs is the RTT mapped to the far grid edge.
	MaxRTTMs float64
}

// Validate checks the config, including that its curve fits a 64-bit
// landmark number.
func (c SpaceConfig) Validate() error {
	switch {
	case len(c.Landmarks) == 0:
		return errors.New("wire: no landmarks")
	case c.IndexDims < 1:
		return errors.New("wire: IndexDims must be >= 1")
	case c.BitsPerDim < 1:
		return errors.New("wire: BitsPerDim must be >= 1")
	case c.MaxRTTMs <= 0:
		return errors.New("wire: MaxRTTMs must be > 0")
	}
	_, err := c.curve()
	return err
}

func (c SpaceConfig) curve() (hilbert.Curve, error) {
	dims := c.IndexDims
	if dims > len(c.Landmarks) {
		dims = len(c.Landmarks)
	}
	return hilbert.New(dims, c.BitsPerDim)
}

// Number reduces a landmark vector to the scalar landmark number under
// this config: landmark.Space.Number's reduction, without allocating.
func (c SpaceConfig) Number(vector []float64) (uint64, error) {
	curve, err := c.curve()
	if err != nil {
		return 0, err
	}
	return landmark.CurveNumber(curve, vector, c.MaxRTTMs)
}

// nodeOptions collects the tunables a Node is built with; NodeOption
// values mutate it.
type nodeOptions struct {
	handleTimeout    time.Duration
	retry            RetryPolicy
	replication      int
	breakerThreshold int
	breakerCooldown  time.Duration
	logger           *slog.Logger
	poolSize         int
	spans            *span.Collector
}

func defaultOptions() nodeOptions {
	return nodeOptions{
		handleTimeout:    10 * time.Second,
		retry:            DefaultRetryPolicy(),
		replication:      2,
		breakerThreshold: 3,
		breakerCooldown:  2 * time.Second,
		logger:           slog.Default(),
		poolSize:         2,
	}
}

// NodeOption customizes a Node at construction.
type NodeOption func(*nodeOptions)

// WithHandleTimeout sets the server-side per-connection deadline (default
// 10s).
func WithHandleTimeout(d time.Duration) NodeOption {
	return func(o *nodeOptions) {
		if d > 0 {
			o.handleTimeout = d
		}
	}
}

// WithRetryPolicy sets the retry policy the node's client calls (pings,
// stores, queries) run under.
func WithRetryPolicy(p RetryPolicy) NodeOption {
	return func(o *nodeOptions) { o.retry = p.normalized() }
}

// WithReplication sets how many ring owners receive the node's record on
// Publish (default 2; clamped to the peer count). Queries fail over down
// the same owner list.
func WithReplication(k int) NodeOption {
	return func(o *nodeOptions) {
		if k >= 1 {
			o.replication = k
		}
	}
}

// WithBreaker tunes the per-peer failure detector: threshold consecutive
// call failures open the breaker; open calls fail fast for cooldown, then
// one half-open probe decides.
func WithBreaker(threshold int, cooldown time.Duration) NodeOption {
	return func(o *nodeOptions) {
		if threshold >= 1 {
			o.breakerThreshold = threshold
		}
		if cooldown > 0 {
			o.breakerCooldown = cooldown
		}
	}
}

// WithPoolSize sets how many persistent connections the node's transport
// keeps per peer (default 2). Concurrent calls multiplex over them; a
// pool of 1 still pipelines every request onto the single connection.
func WithPoolSize(size int) NodeOption {
	return func(o *nodeOptions) {
		if size >= 1 {
			o.poolSize = size
		}
	}
}

// WithTracing attaches a span collector: every head-sampled operation
// (Publish, FindNearest, Withdraw) records a span tree —
// one span per client RPC carrying outcome, attempt count, peer address,
// and latency — and stamps its trace context onto outgoing frames so the
// serving side continues the same trace. Nil (the default) disables
// tracing entirely; the hot-path cost is then a nil check per call. The
// collector belongs to this node: its node label is set from the node's
// listen address.
func WithTracing(c *span.Collector) NodeOption {
	return func(o *nodeOptions) { o.spans = c }
}

// WithLogger sets the node's structured logger (default slog.Default()).
// The node logs only at debug level: refresh failures, replica store
// failures, landmark fallbacks.
func WithLogger(l *slog.Logger) NodeOption {
	return func(o *nodeOptions) {
		if l != nil {
			o.logger = l
		}
	}
}

// Node is one wire participant: the I/O shell around an owner's record
// store and peer ring (owner.go) — a TCP server answering requests with
// serveMessage — plus a client side for measuring, publishing and
// querying.
type Node struct {
	cfg   SpaceConfig
	curve hilbert.Curve            // cfg's curve, built once
	ring  atomic.Pointer[peerRing] // current membership; swapped by SetPeers
	ttl   time.Duration
	opt   nodeOptions

	// reconfMu serializes SetPeers calls: concurrent swaps would race on
	// the epoch bump and interleave their re-homing passes.
	reconfMu sync.Mutex

	ln      net.Listener
	addr    string
	stop    chan struct{}
	metrics *nodeMetrics
	tr      *Transport   // pooled, multiplexed client side
	store   *recordStore // the records this node owns; its own lock

	mu      sync.Mutex            // guards lastRec, conns and closed
	lastRec *Record               // last record this node published; nil before first Publish
	conns   map[net.Conn]struct{} // live server-side connections, closed on shutdown
	closed  bool
	wg      sync.WaitGroup

	// Per-peer failure detectors, client-side state.
	bmu      sync.Mutex
	breakers map[string]*breaker

	// own is the node's landmark vector as soft state: its last complete
	// measurement, which Publish and FindNearest reuse while it is younger
	// than vectorMaxAge. An atomic word of its own, so a measurement never
	// waits on a lock.
	own          atomic.Pointer[ownVector]
	refreshEvery atomic.Int64 // StartRefresh's interval in ns; 0 until it runs
}

// ownVector is one complete landmark measurement of a node: every
// dimension answered by its landmark. Never mutated once stored.
type ownVector struct {
	vec   []float64
	at    time.Time // when the measurement started
	pings int       // pings per landmark it kept the minimum of
}

// NewNode creates a node listening on listenAddr (use "127.0.0.1:0" for
// an ephemeral port). peers is the deployment's full address list
// (including this node once started); ttl bounds record lifetime. The
// node gets a private telemetry registry; use NewNodeWithRegistry to
// share one across co-located nodes.
func NewNode(listenAddr string, cfg SpaceConfig, peers []string, ttl time.Duration, opts ...NodeOption) (*Node, error) {
	return NewNodeWithRegistry(listenAddr, cfg, peers, ttl, nil, opts...)
}

// NewNodeWithRegistry is NewNode with an explicit telemetry registry
// (nil creates a fresh one). Sharing a registry aggregates the metrics
// of several nodes in one process, as cmd/overlayd's demo mode does.
func NewNodeWithRegistry(listenAddr string, cfg SpaceConfig, peers []string, ttl time.Duration, reg *obs.Registry, opts ...NodeOption) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ttl <= 0 {
		return nil, errors.New("wire: ttl must be > 0")
	}
	opt := defaultOptions()
	for _, o := range opts {
		o(&opt)
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, err
	}
	curve, _ := cfg.curve() // Validate has built it once already
	n := &Node{
		cfg:      cfg,
		curve:    curve,
		ttl:      ttl,
		opt:      opt,
		ln:       ln,
		addr:     ln.Addr().String(),
		stop:     make(chan struct{}),
		metrics:  newNodeMetrics(reg),
		conns:    make(map[net.Conn]struct{}),
		breakers: make(map[string]*breaker),
	}
	n.store = newRecordStore(n.metrics.records)
	n.tr = newTransport(opt.poolSize, n.metrics.transport)
	opt.spans.SetNode(n.addr)
	n.ring.Store(&peerRing{peers: normalizePeers(peers), epoch: 1, self: n.addr,
		width: uint(curve.Dims() * curve.Bits())})
	n.metrics.ringEpoch.Set(1)
	n.wg.Add(1)
	go n.serve()
	return n, nil
}

// Transport returns the node's pooled client transport (open-connection
// counts are also exported as wire_conns_open).
func (n *Node) Transport() *Transport { return n.tr }

// Addr returns the node's dialable address.
func (n *Node) Addr() string { return n.addr }

// Registry returns the node's telemetry registry (serve it with
// obs.Handler).
func (n *Node) Registry() *obs.Registry { return n.metrics.reg }

// Spans returns the node's span collector (nil when tracing is off).
// Serve it with span.Handler to expose /traces.
func (n *Node) Spans() *span.Collector { return n.opt.spans }

// Close stops the server and the refresh loop if running, closes the
// persistent server connections and the client pool, and waits for
// in-flight handlers.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	close(n.stop)
	n.mu.Unlock()
	err := n.ln.Close()
	n.mu.Lock()
	for c := range n.conns {
		_ = c.Close()
	}
	n.mu.Unlock()
	n.wg.Wait()
	n.tr.Close()
	return err
}

// StartRefresh launches the soft-state refresh loop: the node re-measures
// its landmark vector and republishes its record every interval (keeping
// it alive against the TTL) until the node is closed. The interval also
// becomes the age up to which Publish and FindNearest reuse the vector.
// Failures are tolerated and retried on the next tick — soft-state's
// whole point is that transient losses heal themselves. Each tick stores
// the record at its ring owners synchronously, as Publish does.
func (n *Node) StartRefresh(interval time.Duration, pings int, timeout time.Duration) {
	if interval <= 0 {
		interval = n.ttl / 3
	}
	n.refreshEvery.Store(int64(interval))
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-n.stop:
				return
			case <-ticker.C:
				if _, err := n.publish(pings, timeout, false); err != nil {
					n.metrics.refreshFailures.Inc()
					n.opt.logger.Debug("wire: refresh publish failed", "node", n.addr, "err", err)
				}
			}
		}
	}()
}

// serve accepts connections until Close.
func (n *Node) serve() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.handle(conn)
		}()
	}
}

// handle serves one persistent connection: requests are read in a loop
// and answered in arrival order (clients multiplex by pipelining many
// in-flight requests tagged with distinct Seqs). The handle timeout is
// an idle deadline, re-armed per frame, so a pooled connection lives as
// long as it keeps carrying traffic. The connection is tracked so Close
// can tear it down instead of waiting out the idle deadline. The reply is
// serveMessage's; the shell adds deadlines, metrics and spans.
func (n *Node) handle(conn net.Conn) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		_ = conn.Close()
		return
	}
	n.conns[conn] = struct{}{}
	n.mu.Unlock()
	defer func() {
		_ = conn.Close()
		n.mu.Lock()
		delete(n.conns, conn)
		n.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, connReadBufSize)
	bw := bufio.NewWriter(conn)
	// The serve loop fully consumes each request before reading the next
	// frame, so the decode state may hand the same []Record backing to
	// every batch; rs reuses the reply-side scratch the same way.
	st := &decodeState{reuseRecords: true}
	var rs replyScratch
	for {
		_ = conn.SetReadDeadline(time.Now().Add(n.opt.handleTimeout))
		req, err := readMessageInto(br, st)
		if err != nil {
			return // EOF, idle timeout, or a broken frame: drop the conn
		}
		start := time.Now()
		// A sampled request continues the caller's trace: the serve span
		// parents to the client RPC span named in the frame's context, so
		// the stitched tree shows the hop crossing the process boundary.
		var sp *span.Active
		if req.Trace != nil {
			sp = n.opt.spans.StartChild("serve."+string(req.Type), *req.Trace)
			sp.SetPeer(conn.RemoteAddr().String())
		}
		resp := serveMessage(n.store, n.ring.Load(), req, start, &rs)
		n.metrics.serve.Observe(float64(time.Since(start).Microseconds()) / 1000)
		tm := n.metrics.of(req.Type)
		tm.requests.Inc()
		if resp.Type == MsgError {
			tm.errors.Inc()
			sp.Finish(span.OutcomeError, 0, errors.New(resp.Err))
		} else {
			sp.Finish(span.OutcomeOK, 0, nil)
		}
		_ = conn.SetWriteDeadline(time.Now().Add(n.opt.handleTimeout))
		if err := writeMessage(bw, resp); err != nil {
			return
		}
	}
}

// RecordCount returns the number of records currently stored.
func (n *Node) RecordCount() int { return n.store.len() }

// breakerFor returns (creating on first use) the failure detector for a
// peer address.
func (n *Node) breakerFor(addr string) *breaker {
	n.bmu.Lock()
	defer n.bmu.Unlock()
	b, ok := n.breakers[addr]
	if !ok {
		b = newBreaker(n.opt.breakerThreshold, n.opt.breakerCooldown,
			n.metrics.breakerState.With(addr))
		n.breakers[addr] = b
	}
	return b
}

// errBreakerOpen fails calls fast while a peer's breaker is open.
var errBreakerOpen = errors.New("wire: circuit breaker open")

// rpc sends req to addr through the per-peer failure detector and the
// node's retry policy, and returns the reply with the wire round trip of
// the attempt that got it. Every client RPC of the node goes through
// here. A transport failure is retried with backoff, and since it closes
// the pooled connection it rode on, the retry reopens a fresh one. A
// remote error or a wrong reply type is permanent (the transport checks
// the type against replyType). The breaker counts whole calls: retries
// happen inside one call, so only a call that exhausts its attempt
// budget (or hits a permanent error) counts as a failure. A call that
// opens the breaker also evicts the peer's pooled connections — stale
// connections to a crashed peer must not outlive the failure verdict.
//
// Observability: the whole call — every attempt, backoff waits, or the
// breaker fail-fast — is one observation in wire_rpc_latency_ms and,
// under a sampled parent, one span whose context rides req's frame so
// the server continues the trace.
func (n *Node) rpc(parent span.Context, addr string, req Message, timeout time.Duration) (Message, time.Duration, error) {
	start := time.Now()
	tm := n.metrics.of(req.Type)
	sp := n.opt.spans.StartChild(string(req.Type), parent)
	sp.SetPeer(addr)
	req.Trace = sp.Context().Ptr()
	br := n.breakerFor(addr)
	if !br.allow(start) {
		err := fmt.Errorf("%w for %s", errBreakerOpen, addr)
		tm.observeRPC(span.OutcomeBreakerOpen, time.Since(start))
		sp.Finish(span.OutcomeBreakerOpen, 0, err)
		return Message{}, 0, err
	}
	var resp Message
	var rtt time.Duration
	attempts := 0
	err := withRetry(n.opt.retry, tm.retries.Inc, n.stop, func() error {
		attempts++
		var err error
		resp, rtt, err = n.tr.roundTripRTT(addr, req, timeout)
		return err
	})
	if err != nil {
		br.failure(time.Now())
		if br.snapshot() == breakerOpen {
			n.tr.Evict(addr)
		}
	} else {
		br.success()
	}
	tm.observeRPC(span.Outcome(err), time.Since(start))
	sp.Finish(span.Outcome(err), attempts, err)
	return resp, rtt, err
}

// ping is an rpc whose RTT also feeds wire_dial_rtt_ms. The RTT is the
// wire round trip on the established pooled connection — a dial, when
// one is needed, happens before the clock starts, so landmark vectors
// measure network distance, not amortized connection setup.
func (n *Node) ping(parent span.Context, addr string, timeout time.Duration) (time.Duration, error) {
	_, rtt, err := n.rpc(parent, addr, Message{Type: MsgPing}, timeout)
	if err == nil {
		n.metrics.observeDial(rtt)
	}
	return rtt, err
}

// MeasureVector pings every landmark (pings per landmark, keeping the
// minimum, as real deployments do to shed scheduler noise) and returns
// the landmark vector in ms. It always measures, and a complete
// measurement becomes the node's cached own vector. It degrades
// gracefully: when a landmark is unreachable, its dimension is filled
// from the cached vector (counted in wire_vector_fallback_total) instead
// of failing the whole vector; such a vector serves this call only and is
// not cached. With no cached vector the call fails — with no prior, a
// made-up coordinate would place the node arbitrarily in the space.
func (n *Node) MeasureVector(pings int, timeout time.Duration) ([]float64, error) {
	return n.measureVector(span.Context{}, pings, timeout)
}

// measureVector is MeasureVector under a trace parent: the landmark
// pings become child spans of the operation that needed the vector
// (publish, find-nearest).
func (n *Node) measureVector(parent span.Context, pings int, timeout time.Duration) ([]float64, error) {
	if pings < 1 {
		pings = 1
	}
	start := time.Now()
	prev := n.own.Load()
	vec := make([]float64, len(n.cfg.Landmarks))
	complete := true
	for i, lm := range n.cfg.Landmarks {
		best := math.Inf(1)
		var lastErr error
		for p := 0; p < pings; p++ {
			rtt, err := n.ping(parent, lm, timeout)
			if err != nil {
				lastErr = err
				if errors.Is(err, errBreakerOpen) {
					break // fail fast for the remaining pings too
				}
				continue
			}
			if ms := float64(rtt.Microseconds()) / 1000; ms < best {
				best = ms
			}
		}
		if math.IsInf(best, 1) {
			if prev == nil {
				return nil, fmt.Errorf("wire: landmark %s unreachable: %w", lm, lastErr)
			}
			vec[i] = prev.vec[i]
			complete = false
			n.metrics.vectorFallback.Inc()
			n.opt.logger.Debug("wire: landmark unreachable, using cached RTT",
				"node", n.addr, "landmark", lm, "rtt_ms", vec[i], "err", lastErr)
			continue
		}
		vec[i] = best
	}
	if complete {
		n.own.Store(&ownVector{vec: slices.Clone(vec), at: start, pings: pings})
		n.metrics.vectorMeasured.Set(float64(start.UnixNano()) / 1e9)
	}
	return vec, nil
}

// vectorMaxAge is how long the cached own vector serves Publish and
// FindNearest: the refresh interval, after which the refresh loop has
// re-measured it anyway (before the loop runs, its default, ttl/3).
func (n *Node) vectorMaxAge() time.Duration {
	if d := n.refreshEvery.Load(); d > 0 {
		return time.Duration(d)
	}
	return n.ttl / 3
}

// normalizePeers returns a sorted, deduplicated copy of a peer list.
func normalizePeers(peers []string) []string {
	out := append([]string(nil), peers...)
	sort.Strings(out)
	w := 0
	for i, p := range out {
		if i > 0 && p == out[w-1] {
			continue
		}
		out[w] = p
		w++
	}
	return out[:w]
}

// OwnerOf returns the peer responsible for a landmark number: the peers
// are laid out on the number ring in sorted-address order, and the owner
// is the one whose slot covers the number (a one-hop ring).
func (n *Node) OwnerOf(number uint64) string { return n.ring.Load().owner(number) }

// OwnersOf returns the k peers responsible for a landmark number: the
// primary owner followed by its ring successors. Replicated publishes
// write to all of them; queries fail over down the same list, so records
// survive any k-1 owner crashes until the next refresh.
func (n *Node) OwnersOf(number uint64, k int) []string {
	return n.ring.Load().owners(number, k)
}

// Peers returns the node's current peer ring (sorted). The slice is the
// ring's immutable backing — callers must not mutate it.
func (n *Node) Peers() []string { return n.ring.Load().peers }

// RingEpoch returns the current peer-ring epoch: 1 at boot, +1 per
// applied SetPeers.
func (n *Node) RingEpoch() uint64 { return n.ring.Load().epoch }

// SetPeers atomically swaps the node's peer ring to a new membership and
// re-homes state, returning the resulting ring epoch. An identical list
// (after sorting and deduplication) is a no-op that keeps the current
// epoch. Otherwise the swap, in order:
//
//  1. publishes the new ring (every owner computation from that instant
//     uses the new membership),
//  2. evicts pooled transport connections and breakers for peers that
//     left (stale state for a removed peer must not linger),
//  3. hands off locally stored records this node no longer owns to all
//     their new ring owners and drops them locally,
//  4. re-publishes the node's own record to its new owners when they
//     changed, removing it best-effort from ex-owners still in the ring.
//
// Handoff failures are tolerated: every record's origin refreshes it
// within one refresh interval, and copies stranded on ex-owners expire
// with the TTL — soft-state converges, the swap only accelerates it.
// In-flight RPCs that sampled the old ring may land one last write on an
// ex-owner; that copy too is TTL-bounded. Concurrent SetPeers calls are
// serialized.
func (n *Node) SetPeers(peers []string, timeout time.Duration) (uint64, error) {
	if len(peers) == 0 {
		return 0, errors.New("wire: SetPeers: empty peer list")
	}
	next := normalizePeers(peers)

	n.reconfMu.Lock()
	defer n.reconfMu.Unlock()
	old := n.ring.Load()
	if slices.Equal(old.peers, next) {
		return old.epoch, nil
	}
	nr := &peerRing{peers: next, epoch: old.epoch + 1, self: old.self, width: old.width}
	n.ring.Store(nr)
	n.metrics.ringEpoch.Set(float64(nr.epoch))

	in := make(map[string]bool, len(next))
	for _, p := range next {
		in[p] = true
	}
	for _, p := range old.peers {
		if in[p] {
			continue
		}
		n.tr.Evict(p)
		n.bmu.Lock()
		if b, ok := n.breakers[p]; ok {
			b.success() // park the exported gauge at closed
			delete(n.breakers, p)
		}
		n.bmu.Unlock()
	}

	// Re-home: take the locally stored records whose new owner set no
	// longer includes this node out of the store; the wire traffic
	// happens outside its lock. Their new owners exclude this node by
	// construction.
	moved := n.store.rehome(func(rec Record) bool {
		return slices.Contains(nr.owners(rec.Number, n.opt.replication), n.addr)
	}, time.Now())
	for _, rec := range moved {
		n.toOwners(span.Context{}, nr.owners(rec.Number, n.opt.replication),
			Message{Type: MsgStore, Record: &rec}, timeout)
		n.metrics.rehomed.Inc()
	}

	n.mu.Lock()
	last := n.lastRec
	n.mu.Unlock()
	if last != nil {
		oldOwners := old.owners(last.Number, n.opt.replication)
		newOwners := nr.owners(last.Number, n.opt.replication)
		if !slices.Equal(oldOwners, newOwners) {
			rec := *last
			rec.ExpiresUnixMilli = time.Now().Add(n.ttl).UnixMilli()
			n.toOwners(span.Context{}, newOwners, Message{Type: MsgStore, Record: &rec}, timeout)
			n.mu.Lock()
			if n.lastRec != nil && n.lastRec.Addr == rec.Addr {
				n.lastRec = &rec
			}
			n.mu.Unlock()
			// Best effort off the ex-owners still in the ring; TTL reaps stragglers.
			exOwners := slices.DeleteFunc(oldOwners, func(o string) bool {
				return !in[o] || slices.Contains(newOwners, o)
			})
			n.toOwners(span.Context{}, exOwners, Message{Type: MsgRemove, Addr: n.addr}, timeout)
		}
	}
	return nr.epoch, nil
}

// toOwners sends req to each owner in turn under parent and returns how
// many acknowledged and the last failure; each failure is debug-logged.
// Every replica store and withdrawal leaves the node here (Publish,
// Withdraw, SetPeers' re-home and own-record republish), so this is the
// one place to make them concurrent.
func (n *Node) toOwners(parent span.Context, owners []string, req Message, timeout time.Duration) (int, error) {
	acked := 0
	var lastErr error
	for _, owner := range owners {
		if _, _, err := n.rpc(parent, owner, req, timeout); err != nil {
			lastErr = err
			n.opt.logger.Debug("wire: owner rpc failed",
				"node", n.addr, "op", req.Type, "owner", owner, "err", err)
			continue
		}
		acked++
	}
	return acked, lastErr
}

// Replication returns the node's configured replication factor.
func (n *Node) Replication() int { return n.opt.replication }

// Publish derives this node's number from its landmark vector (measured
// with pings per landmark, or the cached one, see measureRecord) and
// stores its record at the replication-factor nearest ring owners. It
// succeeds if at least one replica is stored (soft-state heals the rest
// on the next refresh) and returns the published record.
func (n *Node) Publish(pings int, timeout time.Duration) (Record, error) {
	return n.publish(pings, timeout, true)
}

// publish is Publish; a refresh tick passes reuse=false to re-measure the
// vector whatever its age.
func (n *Node) publish(pings int, timeout time.Duration, reuse bool) (rec Record, err error) {
	root := n.opt.spans.StartRoot("publish")
	defer func() { root.Finish(span.Outcome(err), 0, err) }()
	if rec, err = n.measureRecord(root.Context(), pings, timeout, reuse); err != nil {
		return Record{}, err
	}
	owners := n.OwnersOf(rec.Number, n.opt.replication)
	if stored, err := n.toOwners(root.Context(), owners, Message{Type: MsgStore, Record: &rec}, timeout); stored == 0 {
		return Record{}, fmt.Errorf("wire: publish: no owner of %d reachable: %w", rec.Number, err)
	}
	n.setLastRec(rec)
	return rec, nil
}

// setLastRec keeps rec as the record SetPeers republishes and Withdraw
// removes, with a vector of its own: the caller may change its copy.
func (n *Node) setLastRec(rec Record) {
	rec.Vector = slices.Clone(rec.Vector)
	n.mu.Lock()
	n.lastRec = &rec
	n.mu.Unlock()
}

// measureRecord builds this node's record: its landmark vector's number,
// a TTL from now. Publish stores it; FindNearest queries for the records
// nearest to it. With reuse, the vector is a copy of the cached own
// vector while that is younger than vectorMaxAge and kept the minimum of
// at least pings pings per landmark; otherwise the landmarks are pinged
// again under parent.
func (n *Node) measureRecord(parent span.Context, pings int, timeout time.Duration, reuse bool) (Record, error) {
	var vec []float64
	if c := n.own.Load(); reuse && c != nil && c.pings >= pings && time.Since(c.at) < n.vectorMaxAge() {
		vec = slices.Clone(c.vec)
	} else if v, err := n.measureVector(parent, pings, timeout); err == nil {
		vec = v
	} else {
		return Record{}, err
	}
	num, err := landmark.CurveNumber(n.curve, vec, n.cfg.MaxRTTMs)
	if err != nil {
		return Record{}, err
	}
	return Record{
		Addr:             n.addr,
		Vector:           vec,
		Number:           num,
		ExpiresUnixMilli: time.Now().Add(n.ttl).UnixMilli(),
	}, nil
}

// Withdraw is the proactive departure of §5.2 on the wire: the node
// deletes its own record from every ring owner it published to, so peers
// stop learning about it immediately instead of waiting out the TTL.
// It returns how many owners acknowledged the removal. A node that never
// published withdraws trivially (0, nil). Call before Close when shutting
// down gracefully; crashed nodes skip it, which is exactly the case the
// failure detector and takeover exist for.
func (n *Node) Withdraw(timeout time.Duration) (removed int, err error) {
	root := n.opt.spans.StartRoot("withdraw")
	defer func() { root.Finish(span.Outcome(err), 0, err) }()
	n.mu.Lock()
	rec := n.lastRec
	n.mu.Unlock()
	if rec == nil {
		return 0, nil
	}
	owners := n.OwnersOf(rec.Number, n.opt.replication)
	if removed, err = n.toOwners(root.Context(), owners, Message{Type: MsgRemove, Addr: n.addr}, timeout); removed == 0 {
		return 0, fmt.Errorf("wire: withdraw: no owner reachable: %w", err)
	}
	return removed, nil
}

// FindNearest queries the soft-state for candidates near this node's
// landmark position (its cached vector while fresh, see measureRecord)
// and RTT-probes up to budget of them, returning the closest responding
// peer and its measured RTT. The query fails over down the owner list: a
// crashed primary's shard is served by the replicas written at publish
// time.
func (n *Node) FindNearest(budget int, timeout time.Duration) (addr string, rtt time.Duration, err error) {
	root := n.opt.spans.StartRoot("find-nearest")
	defer func() { root.Finish(span.Outcome(err), 0, err) }()
	parent := root.Context()
	self, err := n.measureRecord(parent, 1, timeout, true)
	if err != nil {
		return "", 0, err
	}
	owners := n.OwnersOf(self.Number, n.opt.replication)
	var resp Message
	for i, owner := range owners {
		if resp, _, err = n.rpc(parent, owner, Message{Type: MsgQuery, Number: self.Number, Max: 3 * budget}, timeout); err == nil {
			if i > 0 {
				n.metrics.failover.Inc()
			}
			break
		}
		n.opt.logger.Debug("wire: owner query failed",
			"node", n.addr, "owner", owner, "err", err)
	}
	if err != nil {
		return "", 0, fmt.Errorf("wire: all %d owners unreachable: %w", len(owners), err)
	}
	addr, rtt, _ = pickNearest(n.addr, self.Vector, resp.Records, budget, func(addr string) (time.Duration, error) {
		return n.ping(parent, addr, timeout)
	})
	if addr == "" {
		return "", 0, errors.New("wire: no reachable candidates")
	}
	return addr, rtt, nil
}

// pickNearest runs the hybrid search kernel over the owner's reply, which
// is in curve-number order: re-rank by vector distance to vec (ties by
// address), then ping up to budget records other than self; a failed ping
// is a charged timeout. Records of another landmark space (other dims)
// are dropped. It returns the winner ("" if none), its RTT and the pings.
func pickNearest(self string, vec []float64, recs []Record, budget int,
	ping func(addr string) (time.Duration, error)) (string, time.Duration, int) {
	recs = slices.DeleteFunc(recs, func(r Record) bool { return len(r.Vector) != len(vec) })
	landmark.Rank(recs, vec,
		func(r Record) landmark.Vector { return r.Vector },
		func(r Record) string { return r.Addr }, nil)
	best, rtt, probes := landmark.ProbeBest(recs, budget, func(r Record) (float64, float64, bool) {
		if r.Addr == self {
			return 0, 0, false
		}
		d, err := ping(r.Addr)
		if err != nil {
			return math.Inf(1), 0, true
		}
		return float64(d), float64(d), true
	}, nil) // no reactive deletion on the wire: a dead peer's record expires by TTL
	if best < 0 {
		return "", 0, probes
	}
	return recs[best].Addr, time.Duration(rtt), probes
}
