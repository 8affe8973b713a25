package wire

import (
	"time"

	"gsso/internal/obs"
	"gsso/internal/obs/span"
)

// nodeMetrics holds a node's pre-resolved metric series so the serve and
// dial hot paths never take the registry's family locks.
type nodeMetrics struct {
	reg *obs.Registry

	// byType is resolved per request type of replyType; the "other"
	// entry bounds label cardinality against garbage frames.
	byType  map[MsgType]*typeMetrics
	serve   *obs.Histogram
	dial    *obs.Histogram
	records *obs.Gauge

	failover        *obs.Counter
	refreshFailures *obs.Counter
	vectorFallback  *obs.Counter
	vectorMeasured  *obs.Gauge    // wire_vector_measured_unix_seconds
	breakerState    *obs.GaugeVec // one series per peer, resolved lazily
	ringEpoch       *obs.Gauge    // wire_ring_epoch
	rehomed         *obs.Counter  // wire_rehome_total

	transport *transportMetrics // pooled-connection families
}

// typeMetrics are one message type's series.
type typeMetrics struct {
	requests *obs.Counter // wire_requests_total
	errors   *obs.Counter // wire_request_errors_total
	retries  *obs.Counter // wire_retries_total
	// rpc observes whole client calls — the full retry loop, backoff
	// waits included, plus breaker fail-fasts — by outcome.
	// wire_serve_latency_ms sees only the server side of one attempt;
	// this is the latency a caller actually experienced.
	rpc map[string]*obs.Histogram
}

// observeRPC records one whole client call (retry loop included) under
// its outcome.
func (tm *typeMetrics) observeRPC(outcome string, d time.Duration) {
	if h, ok := tm.rpc[outcome]; ok {
		h.Observe(float64(d.Microseconds()) / 1000)
	}
}

// transportMetrics is the pooled transport's nil-safe telemetry hook: a
// bare NewTransport carries none, a node-owned one meters its pool.
type transportMetrics struct {
	open   *obs.Gauge   // wire_conns_open
	dials  *obs.Counter // wire_conn_dials_total
	reused *obs.Counter // wire_conn_reuse_total
}

func (m *transportMetrics) dialed() {
	if m == nil {
		return
	}
	m.dials.Inc()
	m.open.Add(1)
}

func (m *transportMetrics) dropped() {
	if m == nil {
		return
	}
	m.open.Add(-1)
}

func (m *transportMetrics) reuse() {
	if m == nil {
		return
	}
	m.reused.Inc()
}

// msgTypeOther labels requests of unrecognized type.
const msgTypeOther = "other"

// rpcOutcomes are the client-call outcomes wire_rpc_latency_ms is
// resolved for (they mirror the span outcomes, so traces and metrics
// agree on vocabulary).
var rpcOutcomes = []string{span.OutcomeOK, span.OutcomeError, span.OutcomeBreakerOpen}

func newNodeMetrics(reg *obs.Registry) *nodeMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	requests := reg.Counter("wire_requests_total",
		"Requests served, by message type.", "type")
	errors := reg.Counter("wire_request_errors_total",
		"Requests answered with an error, by message type.", "type")
	retries := reg.Counter("wire_retries_total",
		"Client call re-attempts after transport failures, by message type.", "type")
	rpcLatency := reg.Histogram("wire_rpc_latency_ms",
		"Client-side latency of whole calls (full retry loop, backoff included), milliseconds, by message type and outcome.",
		obs.DefBuckets, "type", "outcome")
	m := &nodeMetrics{
		reg:    reg,
		byType: make(map[MsgType]*typeMetrics, len(replyType)+1),
		serve: reg.Histogram("wire_serve_latency_ms",
			"Time to serve one request, milliseconds.", obs.DefBuckets).With(),
		dial: reg.Histogram("wire_dial_rtt_ms",
			"Client-side round-trip times (landmark pings, candidate probes), milliseconds.",
			obs.DefBuckets).With(),
		records: reg.Gauge("wire_records",
			"Soft-state records currently stored on this node.").With(),
		failover: reg.Counter("wire_failover_total",
			"Queries served by a replica owner after the primary failed.").With(),
		refreshFailures: reg.Counter("wire_refresh_failures_total",
			"Refresh-loop publishes that failed (healed on a later tick).").With(),
		vectorFallback: reg.Counter("wire_vector_fallback_total",
			"Landmark dimensions filled from the cached own vector because the landmark was unreachable.").With(),
		vectorMeasured: reg.Gauge("wire_vector_measured_unix_seconds",
			"Unix time of the last complete landmark measurement, the cached own vector Publish and FindNearest reuse; its age is scrape time minus this.").With(),
		breakerState: reg.Gauge("wire_breaker_state",
			"Per-peer failure detector state: 0 closed, 1 half-open, 2 open.", "peer"),
		ringEpoch: reg.Gauge("wire_ring_epoch",
			"Peer-ring epoch this node routes on: 1 at boot, +1 per applied SetPeers. Differing epochs across a fleet expose membership drift.").With(),
		rehomed: reg.Counter("wire_rehome_total",
			"Locally stored records handed off to their new ring owners during a peer-ring swap.").With(),
		transport: &transportMetrics{
			open: reg.Gauge("wire_conns_open",
				"Pooled client connections currently open, all peers.").With(),
			dials: reg.Counter("wire_conn_dials_total",
				"New pooled connections dialed.").With(),
			reused: reg.Counter("wire_conn_reuse_total",
				"Client calls served on an already-open pooled connection.").With(),
		},
	}
	resolve := func(t MsgType) {
		tm := &typeMetrics{
			requests: requests.With(string(t)),
			errors:   errors.With(string(t)),
			retries:  retries.With(string(t)),
			rpc:      make(map[string]*obs.Histogram, len(rpcOutcomes)),
		}
		for _, o := range rpcOutcomes {
			tm.rpc[o] = rpcLatency.With(string(t), o)
		}
		m.byType[t] = tm
	}
	for t := range replyType {
		resolve(t)
	}
	resolve(msgTypeOther)
	return m
}

// of returns the series of a message type, or of "other" for a type
// that is not a request.
func (m *nodeMetrics) of(t MsgType) *typeMetrics {
	if tm, ok := m.byType[t]; ok {
		return tm
	}
	return m.byType[msgTypeOther]
}

// observeDial records one client-side round trip.
func (m *nodeMetrics) observeDial(rtt time.Duration) {
	m.dial.Observe(float64(rtt.Microseconds()) / 1000)
}
