// Package monitor builds the cluster-wide health view over a set of
// overlayd metrics endpoints: it scrapes each node's /healthz, /readyz,
// /metrics.json and /traces and merges them into one ClusterView — per
// node health, readiness and record counts, suspicion and breaker
// states, ring coverage, cluster-merged RPC latency quantiles, and the
// slowest distributed traces stitched across nodes by trace ID.
//
// cmd/overlaymon renders the view for humans; internal/e2e asserts
// self-healing invariants against the same machine-readable snapshot,
// so the chaos gate and the operator console can never disagree about
// what "healthy" means.
package monitor

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"gsso/internal/obs"
	"gsso/internal/obs/span"
)

// ScrapeResult is one node's raw scrape: health and readiness probes,
// metrics snapshot, and (when the node traces) its span ring dump.
type ScrapeResult struct {
	Addr           string
	Healthy        bool
	Ready          bool
	NotReadyReason string
	Err            string
	Snap           obs.Snapshot
	Traces         *span.Dump
}

// ScrapeAll fetches every node concurrently. Order of the result matches
// the input, so renders are stable across ticks.
func ScrapeAll(addrs []string, timeout time.Duration) []ScrapeResult {
	client := &http.Client{Timeout: timeout}
	out := make([]ScrapeResult, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			out[i] = ScrapeNode(client, addr)
		}(i, addr)
	}
	wg.Wait()
	return out
}

// ScrapeNode probes one node's metrics endpoint. /healthz and
// /metrics.json are required for a healthy scrape; /traces is optional —
// a node running with tracing disabled simply contributes no spans — and
// so is /readyz: an endpoint that does not expose readiness (older
// daemons, bare obs.Handler muxes) is taken as ready-when-live rather
// than flagged not-ready forever.
func ScrapeNode(client *http.Client, addr string) ScrapeResult {
	res := ScrapeResult{Addr: addr}
	base := "http://" + addr
	if err := getOK(client, base+"/healthz", nil); err != nil {
		res.Err = err.Error()
		return res
	}
	if err := getOK(client, base+"/metrics.json", &res.Snap); err != nil {
		res.Err = err.Error()
		return res
	}
	res.Healthy = true
	res.Ready, res.NotReadyReason = scrapeReady(client, base)
	var dump span.Dump
	if err := getOK(client, base+"/traces", &dump); err == nil {
		res.Traces = &dump
	}
	return res
}

// scrapeReady probes /readyz: 200 is ready, 503 is explicitly
// not-ready (the body carries the reason), anything else — a 404 from
// an endpoint that predates the liveness/readiness split, or a
// transport error after /healthz just succeeded — degrades to
// ready-when-live.
func scrapeReady(client *http.Client, base string) (bool, string) {
	resp, err := client.Get(base + "/readyz")
	if err != nil {
		return true, ""
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	switch resp.StatusCode {
	case http.StatusOK:
		return true, ""
	case http.StatusServiceUnavailable:
		reason := string(body)
		if len(reason) > 0 && reason[len(reason)-1] == '\n' {
			reason = reason[:len(reason)-1]
		}
		return false, reason
	default:
		return true, ""
	}
}

// getOK fetches url, requires 200, and JSON-decodes into v when non-nil.
func getOK(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	if v == nil {
		_, err := io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// NodeView is one node's row in the cluster health table.
type NodeView struct {
	Addr            string  `json:"addr"`
	Healthy         bool    `json:"healthy"`
	Ready           bool    `json:"ready"`
	NotReadyReason  string  `json:"not_ready_reason,omitempty"`
	Err             string  `json:"err,omitempty"`
	Records         float64 `json:"records"`
	Requests        float64 `json:"requests"`
	RequestsPerSec  float64 `json:"requests_per_sec,omitempty"` // watch mode only
	RefreshFailures float64 `json:"refresh_failures"`
	ConnsOpen       float64 `json:"conns_open"`
	// Epoch is the node's current ring epoch (wire_ring_epoch): 1 at
	// boot, +1 per live membership swap applied. Nodes disagreeing on
	// membership show different epochs only transiently — the peer set,
	// not the epoch, is the agreement criterion (epochs are per-node
	// counters and reset to 1 on restart). Reconfigs counts the swaps
	// this incarnation applied (cluster_reconfig_total).
	Epoch        float64  `json:"epoch"`
	Reconfigs    float64  `json:"reconfigs"`
	OpenBreakers []string `json:"open_breakers,omitempty"`
}

// RPCView is the cluster-merged client latency of one message type:
// every node's wire_rpc_latency_ms histograms for that type summed
// bucket-wise (all nodes share obs.DefBuckets), with quantiles estimated
// off the merged distribution.
type RPCView struct {
	Type   string  `json:"type"`
	Count  uint64  `json:"count"`
	Errors uint64  `json:"errors"` // non-"ok" outcomes, breaker fail-fasts included
	P50    float64 `json:"p50_ms"`
	P90    float64 `json:"p90_ms"`
	P99    float64 `json:"p99_ms"`
}

// SpanView is one span placed in its trace tree.
type SpanView struct {
	Depth  int  `json:"depth"`
	Orphan bool `json:"orphan,omitempty"` // parent span not found in any scraped buffer
	span.Span
}

// TraceView is one trace stitched across every scraped node: the spans
// of all ring dumps sharing a TraceID, arranged into a parent/child tree.
type TraceView struct {
	TraceID string     `json:"trace_id"`
	RootOp  string     `json:"root_op"`
	Node    string     `json:"node"` // node that started the trace
	Outcome string     `json:"outcome"`
	DurMs   float64    `json:"dur_ms"`
	Orphans int        `json:"orphans"`
	Spans   []SpanView `json:"spans"`
}

// ClusterView is the full health snapshot: one row per node, readiness
// and ring coverage, merged RPC latencies, and the slowest stitched
// traces.
type ClusterView struct {
	ScrapedAt     string      `json:"scraped_at"`
	Nodes         []NodeView  `json:"nodes"`
	Healthy       int         `json:"healthy"`
	Ready         int         `json:"ready"`
	Unreachable   int         `json:"unreachable"`
	TotalRecords  float64     `json:"total_records"`
	CoverageNodes int         `json:"coverage_nodes"` // healthy nodes holding at least one record
	RPC           []RPCView   `json:"rpc"`
	Traces        []TraceView `json:"slowest_traces"`
	TracedNodes   int         `json:"traced_nodes"`
}

// sumSeries totals every series of a counter/gauge family.
func sumSeries(s obs.Snapshot, name string) float64 {
	f, ok := s.Family(name)
	if !ok {
		return 0
	}
	total := 0.0
	for _, se := range f.Series {
		total += se.Value
	}
	return total
}

// BuildView aggregates raw scrapes into the cluster health snapshot.
// top bounds how many stitched traces are kept (slowest first).
func BuildView(scrapes []ScrapeResult, top int) ClusterView {
	v := ClusterView{ScrapedAt: time.Now().UTC().Format(time.RFC3339)}
	merged := map[string]*obs.HistSnapshot{} // rpc type -> merged histogram
	errCounts := map[string]uint64{}
	var allSpans []span.Span
	for _, sc := range scrapes {
		nv := NodeView{Addr: sc.Addr, Healthy: sc.Healthy, Ready: sc.Ready,
			NotReadyReason: sc.NotReadyReason, Err: sc.Err}
		if !sc.Healthy {
			v.Unreachable++
			v.Nodes = append(v.Nodes, nv)
			continue
		}
		v.Healthy++
		if sc.Ready {
			v.Ready++
		}
		nv.Records = sumSeries(sc.Snap, "wire_records")
		nv.Requests = sumSeries(sc.Snap, "wire_requests_total")
		nv.RefreshFailures = sumSeries(sc.Snap, "wire_refresh_failures_total")
		nv.ConnsOpen = sumSeries(sc.Snap, "wire_conns_open")
		nv.Epoch = sumSeries(sc.Snap, "wire_ring_epoch")
		nv.Reconfigs = sumSeries(sc.Snap, "cluster_reconfig_total")
		if f, ok := sc.Snap.Family("wire_breaker_state"); ok {
			for _, se := range f.Series {
				if se.Value == 2 && len(se.LabelValues) == 1 {
					nv.OpenBreakers = append(nv.OpenBreakers, se.LabelValues[0])
				}
			}
			sort.Strings(nv.OpenBreakers)
		}
		v.TotalRecords += nv.Records
		if nv.Records > 0 {
			v.CoverageNodes++
		}
		if f, ok := sc.Snap.Family("wire_rpc_latency_ms"); ok {
			for _, se := range f.Series {
				// Labels are (type, outcome) in family order.
				if len(se.LabelValues) != 2 || se.Hist == nil || se.Hist.Count == 0 {
					continue
				}
				typ, outcome := se.LabelValues[0], se.LabelValues[1]
				m, err := obs.MergeHist(merged[typ], se.Hist)
				if err != nil {
					continue // foreign bucket layout; skip rather than mis-merge
				}
				merged[typ] = m
				if outcome != span.OutcomeOK {
					errCounts[typ] += se.Hist.Count
				}
			}
		}
		if sc.Traces != nil {
			v.TracedNodes++
			allSpans = append(allSpans, sc.Traces.Spans...)
		}
		v.Nodes = append(v.Nodes, nv)
	}
	types := make([]string, 0, len(merged))
	for t := range merged {
		types = append(types, t)
	}
	sort.Strings(types)
	for _, t := range types {
		h := merged[t]
		v.RPC = append(v.RPC, RPCView{
			Type:   t,
			Count:  h.Count,
			Errors: errCounts[t],
			P50:    h.Quantile(0.50),
			P90:    h.Quantile(0.90),
			P99:    h.Quantile(0.99),
		})
	}
	v.Traces = stitchTraces(allSpans, top)
	return v
}

// stitchTraces groups spans from every node by TraceID, arranges each
// group into a parent/child tree (roots are ParentID==0; spans whose
// parent is in no scraped buffer are flagged orphans), and returns the
// top slowest traces by root duration.
func stitchTraces(spans []span.Span, top int) []TraceView {
	byTrace := map[uint64][]span.Span{}
	for _, s := range spans {
		byTrace[s.TraceID] = append(byTrace[s.TraceID], s)
	}
	views := make([]TraceView, 0, len(byTrace))
	for id, group := range byTrace {
		views = append(views, buildTree(id, group))
	}
	sort.Slice(views, func(i, j int) bool {
		if views[i].DurMs != views[j].DurMs {
			return views[i].DurMs > views[j].DurMs
		}
		return views[i].TraceID < views[j].TraceID
	})
	if top > 0 && len(views) > top {
		views = views[:top]
	}
	return views
}

// buildTree arranges one trace's spans into DFS order with depths.
func buildTree(id uint64, group []span.Span) TraceView {
	tv := TraceView{TraceID: fmt.Sprintf("%016x", id)}
	present := make(map[uint64]bool, len(group))
	children := map[uint64][]span.Span{}
	var roots []span.Span
	for _, s := range group {
		present[s.SpanID] = true
	}
	for _, s := range group {
		if s.Root() {
			roots = append(roots, s)
		} else if present[s.ParentID] {
			children[s.ParentID] = append(children[s.ParentID], s)
		} else {
			tv.Orphans++
		}
	}
	byStart := func(ss []span.Span) {
		sort.Slice(ss, func(i, j int) bool {
			if ss[i].StartUnixMicro != ss[j].StartUnixMicro {
				return ss[i].StartUnixMicro < ss[j].StartUnixMicro
			}
			return ss[i].SpanID < ss[j].SpanID
		})
	}
	byStart(roots)
	var walk func(s span.Span, depth int)
	walk = func(s span.Span, depth int) {
		tv.Spans = append(tv.Spans, SpanView{Depth: depth, Span: s})
		kids := children[s.SpanID]
		byStart(kids)
		for _, k := range kids {
			walk(k, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	if len(roots) > 0 {
		tv.RootOp = roots[0].Op
		tv.Node = roots[0].Node
		tv.Outcome = roots[0].Outcome
		for _, r := range roots {
			if r.DurMs > tv.DurMs {
				tv.DurMs = r.DurMs
			}
		}
	}
	// Orphans still render, flagged, at the end — a partially evicted ring
	// buffer should not hide the spans that survived.
	for _, s := range group {
		if !s.Root() && !present[s.ParentID] {
			tv.Spans = append(tv.Spans, SpanView{Depth: 0, Orphan: true, Span: s})
		}
	}
	return tv
}
