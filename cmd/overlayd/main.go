// Command overlayd runs one wire node: a TCP daemon that serves soft-state
// shards and landmark pings, and can publish itself and query for its
// nearest peer.
//
// A minimal three-terminal demo (the first two double as landmarks):
//
//	overlayd -listen 127.0.0.1:7001 -peers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 -landmarks 127.0.0.1:7001,127.0.0.1:7002
//	overlayd -listen 127.0.0.1:7002 -peers ...same... -landmarks ...same...
//	overlayd -listen 127.0.0.1:7003 -peers ...same... -landmarks ...same... -publish -query
//
// With -publish the node measures its landmark vector, derives its
// landmark number, and stores its record at the owning peer; with -query
// it then asks the soft-state for its physically nearest peer.
//
// With -metrics ADDR the daemon serves its telemetry registry over HTTP:
// /metrics (Prometheus text format), /metrics.json, /healthz, and
// /readyz. /healthz is pure liveness (the process is up); /readyz
// answers 200 only once the node has joined the overlay — for a
// publisher, once the initial publish landed and the refresh loop is
// publishing — so supervisors (cmd/overlayctl) gate bootstrap and
// restarts on it instead of sleeping. With -join-retry a failed initial
// publish is retried at that interval (reported not-ready meanwhile)
// instead of exiting, so a node restarted into a half-up cluster joins
// by itself once its landmarks return.
//
// Observability knobs: every root operation (publish, withdraw,
// find-nearest) is head-sampled 1-in-N by -trace-sample
// (1 = trace everything, 0 = off) into a fixed -trace-buf span ring
// buffer served at /traces on the metrics address; cmd/overlaymon
// stitches those dumps across nodes into per-trace span trees. -slow-ms
// logs any sampled root request slower than the threshold together with
// its full local span chain, and -pprof mounts net/http/pprof under
// /debug/pprof/ on the metrics listener (off by default).
//
// Live reconfiguration: with -peers-file PATH the peer list is read from
// a file instead of -peers, and SIGHUP re-reads it and atomically swaps
// the ring (new epoch, pools/breakers of removed peers evicted, records
// re-homed to their new owners). The same swap is reachable over HTTP as
// POST /admin/peers on the -metrics address (JSON body:
// {"peers":["host:port",...]}; GET returns the current list and epoch).
// While a serving node re-homes, /readyz answers 503 ("re-homing"), so
// rolling operations gated on readiness wait for the swap to settle.
// Applied reconfigurations count in cluster_reconfig_total, and the
// ring epoch is exported as wire_ring_epoch.
//
// Resilience knobs: -retries caps attempts per wire call (with capped
// exponential backoff and jitter between them), -replicas sets how many
// ring owners each published record is stored on, and -handle-timeout
// bounds how long the server side holds an idle connection (the deadline
// resets on every frame, so busy persistent connections live on).
//
// Transport knobs: -pool-size sets how many persistent, multiplexed
// client connections the node keeps per peer. A node publishes one
// record, its own, and stores it at each ring owner synchronously, on
// the first publish and on every refresh tick alike.
//
// Output is logfmt (log/slog): one line per event, machine-parseable
// key=value pairs. -v enables debug-level lines.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"gsso/internal/cluster"
	"gsso/internal/obs"
	"gsso/internal/obs/span"
	"gsso/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "overlayd:", err)
		os.Exit(1)
	}
}

// newLogger builds the daemon's logfmt logger. Timestamps are dropped:
// the output is consumed by tests and pipelines, and a collector adds
// its own receive time.
func newLogger(out io.Writer, verbose bool) *slog.Logger {
	lvl := slog.LevelInfo
	if verbose {
		lvl = slog.LevelDebug
	}
	return slog.New(slog.NewTextHandler(out, &slog.HandlerOptions{
		Level: lvl,
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if a.Key == slog.TimeKey && len(groups) == 0 {
				return slog.Attr{}
			}
			return a
		},
	}))
}

// readyState is the daemon's readiness latch: /healthz stays a pure
// liveness probe (the process is up and serving HTTP), while /readyz
// flips to 200 only once the node has actually joined the overlay — for
// a publisher, once the initial publish landed and the refresh loop is
// keeping it alive. Supervisors gate cluster bootstrap on readiness
// instead of sleeping.
type readyState struct {
	mu     sync.Mutex
	ready  bool
	reason string
}

func newReadyState(reason string) *readyState {
	return &readyState{reason: reason}
}

func (r *readyState) set(ready bool, reason string) {
	r.mu.Lock()
	r.ready, r.reason = ready, reason
	r.mu.Unlock()
}

func (r *readyState) get() (bool, string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ready, r.reason
}

// serveMetrics exposes reg on addr — plus /traces when a span collector
// is attached, /readyz when a readiness latch is wired (nil mirrors
// liveness: always ready), /admin/peers when an admin handler is wired,
// and the net/http/pprof endpoints when pprofOn — and returns the
// server plus its bound listener address (addr may carry port 0).
func serveMetrics(addr string, reg *obs.Registry, col *span.Collector, ready *readyState, admin http.Handler, pprofOn bool, logger *slog.Logger) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("metrics listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/", obs.Handler(reg))
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if ready == nil {
			_, _ = io.WriteString(w, "ready\n")
			return
		}
		if ok, reason := ready.get(); !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = io.WriteString(w, "starting: "+reason+"\n")
			return
		}
		_, _ = io.WriteString(w, "ready\n")
	})
	if col != nil {
		mux.Handle("/traces", span.Handler(col))
	}
	if admin != nil {
		mux.Handle("/admin/peers", admin)
	}
	if pprofOn {
		// Registered explicitly on this mux (not the default one): the
		// profiler is opt-in and scoped to the metrics listener, so live
		// nodes can be profiled like topobench runs without exposing
		// /debug on the overlay port.
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	}
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	logger.Info("metrics", "addr", ln.Addr().String(), "traces", col != nil, "pprof", pprofOn)
	return srv, ln.Addr().String(), nil
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("overlayd", flag.ContinueOnError)
	var (
		demo      = fs.Int("demo", 0, "spin an n-node local demo cluster, run the full flow, exit")
		listen    = fs.String("listen", "127.0.0.1:0", "address to listen on")
		peersCSV  = fs.String("peers", "", "comma-separated full peer list (including self)")
		lmCSV     = fs.String("landmarks", "", "comma-separated landmark addresses")
		ttl       = fs.Duration("ttl", time.Minute, "soft-state record TTL")
		maxRTT    = fs.Float64("max-rtt", 100, "RTT (ms) mapped to the far grid edge")
		indexDims = fs.Int("index-dims", 3, "landmark vector components fed to the curve")
		bits      = fs.Int("bits", 5, "grid bits per curve dimension")
		pings     = fs.Int("pings", 3, "pings per landmark measurement")
		budget    = fs.Int("budget", 5, "RTT probes per nearest-peer query")
		publish   = fs.Bool("publish", false, "publish this node's record after startup")
		refresh   = fs.Duration("refresh", 0, "republish interval (0 = ttl/3; only with -publish)")
		query     = fs.Bool("query", false, "query for the nearest peer after publishing")
		oneshot   = fs.Bool("oneshot", false, "exit after publish/query instead of serving")
		timeout   = fs.Duration("timeout", 2*time.Second, "per-request network timeout")
		metrics   = fs.String("metrics", "", "serve /metrics, /metrics.json, /healthz on this address")
		hold      = fs.Duration("hold", 0, "demo only: keep the cluster (and -metrics endpoint) up this long after the flow")
		verbose   = fs.Bool("v", false, "debug-level logging")

		handleTO  = fs.Duration("handle-timeout", 10*time.Second, "server-side idle deadline per connection (reset on every frame)")
		replicas  = fs.Int("replicas", 2, "ring owners each record is stored on")
		retries   = fs.Int("retries", 3, "attempts per wire call (capped exponential backoff between them)")
		poolSize  = fs.Int("pool-size", 2, "pooled client connections kept per peer")
		drainTO   = fs.Duration("drain-timeout", 2*time.Second, "graceful-drain budget on SIGINT/SIGTERM: withdraw soft-state before closing (0 disables)")
		joinRetry = fs.Duration("join-retry", 0, "retry a failed initial publish at this interval instead of exiting (0 = fail hard); the node reports not-ready on /readyz until joined")
		peersFile = fs.String("peers-file", "", "read the peer list from this file instead of -peers; SIGHUP re-reads it and live-swaps the ring")

		traceSample = fs.Int("trace-sample", 1, "head-sample 1 in N root requests into /traces (1 = all, 0 disables tracing)")
		traceBuf    = fs.Int("trace-buf", 4096, "span ring-buffer capacity (oldest spans overwritten)")
		slowMs      = fs.Float64("slow-ms", 0, "log any sampled root request slower than this many ms with its full span chain (0 disables)")
		pprofOn     = fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the -metrics address")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger := newLogger(out, *verbose)
	if *demo > 0 {
		return runDemo(*demo, *ttl, *timeout, *metrics, *hold, logger)
	}
	if *lmCSV == "" {
		return fmt.Errorf("need -landmarks")
	}
	cfg := wire.SpaceConfig{
		Landmarks:  splitCSV(*lmCSV),
		IndexDims:  *indexDims,
		BitsPerDim: *bits,
		MaxRTTMs:   *maxRTT,
	}
	pol := wire.DefaultRetryPolicy()
	pol.MaxAttempts = *retries
	var col *span.Collector
	if *traceSample > 0 {
		col = span.NewCollector(*traceBuf, *traceSample)
	}
	peerList := splitCSV(*peersCSV)
	if *peersFile != "" {
		pl, err := readPeersFile(*peersFile)
		if err != nil {
			return fmt.Errorf("peers-file: %w", err)
		}
		peerList = pl
	}
	node, err := wire.NewNode(*listen, cfg, peerList, *ttl,
		wire.WithHandleTimeout(*handleTO),
		wire.WithReplication(*replicas),
		wire.WithRetryPolicy(pol),
		wire.WithPoolSize(*poolSize),
		wire.WithTracing(col),
		wire.WithLogger(logger))
	if err != nil {
		return err
	}
	defer node.Close()
	if *slowMs > 0 {
		col.SetSlowLog(*slowMs, func(root span.Span, chain []span.Span) {
			logger.Warn("slow-request", "op", root.Op,
				"trace", fmt.Sprintf("%016x", root.TraceID),
				"dur_ms", fmt.Sprintf("%.2f", root.DurMs),
				"spans", span.ChainString(chain))
		})
	}
	logger.Info("listening", "addr", node.Addr(),
		"landmarks", len(cfg.Landmarks), "peers", len(peerList))

	// Liveness vs readiness: the metrics listener serves /healthz as soon
	// as it is up (the process lives), but /readyz answers 503 until the
	// node has joined — for a publisher, until the first publish landed
	// and the refresh loop is keeping the record alive.
	ready := newReadyState("node starting")

	// Live reconfiguration: SIGHUP re-reads -peers-file and POST
	// /admin/peers applies a pushed list; both run the same apply path.
	// A node that was serving flips /readyz to 503 ("re-homing") for the
	// duration of the swap so load balancers and the supervisor's
	// readiness barrier see the membership change settle; a node still
	// joining keeps its original not-ready reason.
	reconfigs := node.Registry().Counter("cluster_reconfig_total",
		"Peer-list reconfigurations applied live (SIGHUP or /admin/peers).").With()
	var reconfMu sync.Mutex
	applyPeers := func(peers []string, source string) (uint64, error) {
		reconfMu.Lock()
		defer reconfMu.Unlock()
		wasReady, reason := ready.get()
		if wasReady {
			ready.set(false, "re-homing")
		}
		before := node.RingEpoch()
		epoch, err := node.SetPeers(peers, *timeout)
		if err == nil && epoch != before {
			reconfigs.Inc()
			logger.Info("reconfigured", "source", source, "epoch", epoch, "peers", len(peers))
		}
		if wasReady {
			ready.set(true, reason)
		}
		if err != nil {
			logger.Warn("reconfig-failed", "source", source, "err", err)
		}
		return epoch, err
	}
	admin := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			// Fall through to the state dump below.
		case http.MethodPost:
			var req struct {
				Peers []string `json:"peers"`
			}
			if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
				http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
				return
			}
			if _, err := applyPeers(req.Peers, "admin"); err != nil {
				http.Error(w, err.Error(), http.StatusUnprocessableEntity)
				return
			}
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"epoch": node.RingEpoch(),
			"peers": node.Peers(),
		})
	})
	if *metrics != "" {
		srv, _, err := serveMetrics(*metrics, node.Registry(), col, ready, admin, *pprofOn, logger)
		if err != nil {
			return err
		}
		defer srv.Close()
	}

	// The signal handler is installed before the join loop so a supervisor
	// stopping a node that is still retrying its way in does not hang.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	// With a peers file, SIGHUP is the zero-downtime reload: re-read the
	// file and live-swap the ring. Without one SIGHUP keeps its default
	// terminate action — there is nothing to reload from.
	if *peersFile != "" {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
		quit := make(chan struct{})
		defer close(quit)
		go func() {
			for {
				select {
				case <-quit:
					return
				case <-hup:
					peers, err := readPeersFile(*peersFile)
					if err != nil {
						logger.Warn("peers-file-reload-failed", "path", *peersFile, "err", err)
						continue
					}
					_, _ = applyPeers(peers, "sighup")
				}
			}
		}()
	}

	if *publish {
		ready.set(false, "awaiting initial publish")
		rec, err := node.Publish(*pings, *timeout)
		for err != nil {
			if *joinRetry <= 0 {
				return fmt.Errorf("publish: %w", err)
			}
			logger.Warn("join-pending", "retry_in", *joinRetry, "err", err)
			select {
			case <-sig:
				// Interrupted before joining: nothing published, nothing to
				// drain.
				logger.Info("shutdown")
				return nil
			case <-time.After(*joinRetry):
			}
			rec, err = node.Publish(*pings, *timeout)
		}
		logger.Info("published", "number", rec.Number,
			"owner", node.OwnerOf(rec.Number), "replicas", node.Replication())
		logger.Debug("vector", "rtts_ms", fmt.Sprintf("%.3v", rec.Vector))
		if !*oneshot {
			node.StartRefresh(*refresh, *pings, *timeout)
		}
	}
	if *query {
		addr, rtt, err := node.FindNearest(*budget, *timeout)
		if err != nil {
			return fmt.Errorf("query: %w", err)
		}
		logger.Info("nearest", "peer", addr, "rtt", rtt)
	}
	if *oneshot {
		return nil
	}
	ready.set(true, "")
	logger.Info("ready", "publisher", *publish)

	<-sig
	ready.set(false, "draining")
	// Graceful drain: withdraw our soft-state before the deferred Close
	// tears the listener down (the proactive-departure case of §5.2 —
	// leave by deletion, not by letting peers wait out the TTL).
	if *drainTO > 0 {
		acked, err := node.Withdraw(*drainTO)
		switch {
		case err != nil:
			logger.Warn("drain-failed", "err", err)
		case acked > 0:
			logger.Info("drained", "owners_acked", acked)
		}
	}
	logger.Info("shutdown")
	return nil
}

// runDemo spins n nodes on ephemeral localhost ports (the first three, or
// fewer, double as landmarks), publishes everyone's record, and asks each
// node for its nearest peer — the whole zero-to-aha flow in one command.
// All nodes share one telemetry registry, served on metricsAddr when set.
func runDemo(n int, ttl, timeout time.Duration, metricsAddr string, hold time.Duration, logger *slog.Logger) error {
	if n < 2 {
		return fmt.Errorf("demo needs at least 2 nodes, got %d", n)
	}
	addrs, err := cluster.ReserveAddrs(n)
	if err != nil {
		return err
	}
	lmCount := 3
	if lmCount > n {
		lmCount = n
	}
	cfg := wire.SpaceConfig{
		Landmarks:  addrs[:lmCount],
		IndexDims:  3,
		BitsPerDim: 5,
		MaxRTTMs:   50,
	}
	reg := obs.NewRegistry()
	nodes := make([]*wire.Node, n)
	for i := range nodes {
		node, err := wire.NewNodeWithRegistry(addrs[i], cfg, addrs, ttl, reg,
			wire.WithLogger(logger))
		if err != nil {
			return err
		}
		nodes[i] = node
		defer node.Close()
	}
	logger.Info("demo-start", "nodes", n, "landmarks", lmCount)
	if metricsAddr != "" {
		// Demo nodes stay untraced: a collector is per-node (its node
		// label is single-valued) and the demo shares one process. The
		// nil readiness latch makes /readyz mirror /healthz.
		srv, _, err := serveMetrics(metricsAddr, reg, nil, nil, nil, false, logger)
		if err != nil {
			return err
		}
		defer srv.Close()
	}
	for _, node := range nodes {
		rec, err := node.Publish(2, timeout)
		if err != nil {
			return fmt.Errorf("publish %s: %w", node.Addr(), err)
		}
		logger.Info("published", "addr", node.Addr(), "number", rec.Number,
			"owner", node.OwnerOf(rec.Number))
	}
	for _, node := range nodes {
		addr, rtt, err := node.FindNearest(3, timeout)
		if err != nil {
			logger.Warn("no-nearest", "addr", node.Addr(), "err", err)
			continue
		}
		logger.Info("nearest", "addr", node.Addr(), "peer", addr, "rtt", rtt)
	}
	if hold > 0 {
		logger.Info("holding", "for", hold)
		time.Sleep(hold)
	}
	logger.Info("demo-done")
	return nil
}

// readPeersFile parses a peers file: addresses separated by newlines,
// commas, or whitespace; blank lines and #-comments are ignored.
func readPeersFile(path string) ([]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, line := range strings.Split(string(b), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		out = append(out, strings.FieldsFunc(line, func(r rune) bool {
			return r == ',' || r == ' ' || r == '\t' || r == '\r'
		})...)
	}
	return out, nil
}

func splitCSV(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
