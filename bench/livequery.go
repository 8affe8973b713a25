package main

import (
	"fmt"
	"time"

	"gsso/internal/simrand"
	"gsso/internal/wire"
)

// live-query: reads against record stores of realistic size. Every serving
// node is preloaded with seeded synthetic records; two closed-loop clients,
// each with its own transport, send MsgQuery to seeded nodes.

const (
	queryServing = 4
	queryClients = 2
	queryOpList  = 1 << 14 // ops generated per client; the run cycles them
	queryVerify  = 200     // per client, checked against a brute-force scan
	preloadBatch = 64
)

// queryOp is one op: which serving node to ask, and for which number.
type queryOp struct {
	node   int32
	number uint64
}

// genRecords makes the records each serving node is preloaded with: distinct
// addresses, numbers uniform over the curve.
func genRecords(seed uint64, nodes, perNode int) [][]wire.Record {
	rng := simrand.New(seed).Split("live-query/records")
	expires := time.Now().Add(fleetTTL).UnixMilli()
	out := make([][]wire.Record, nodes)
	for n := range out {
		out[n] = make([]wire.Record, perNode)
		for i := range out[n] {
			out[n][i] = wire.Record{
				Addr:             fmt.Sprintf("10.%d.%d.%d:7000", n, i>>8, i&255),
				Vector:           []float64{rng.Range(0, 1000), rng.Range(0, 1000), rng.Range(0, 1000)},
				Number:           uint64(rng.Intn(curveNumbers)),
				ExpiresUnixMilli: expires,
			}
		}
	}
	return out
}

func genQueryOps(seed uint64, nodes int) [][]queryOp {
	out := make([][]queryOp, queryClients)
	for c := range out {
		rng := simrand.New(seed).Split(fmt.Sprintf("live-query/client%d", c))
		out[c] = make([]queryOp, queryOpList)
		for i := range out[c] {
			out[c][i] = queryOp{node: int32(rng.Intn(nodes)), number: uint64(rng.Intn(curveNumbers))}
		}
	}
	return out
}

type liveQuery struct {
	f       *fleet
	records [][]wire.Record
	ops     [][]queryOp
	clientT []*wire.Transport
}

func prepareLiveQuery(cfg config) (func(int, *tracer) (instance, error), error) {
	records := genRecords(cfg.seed, queryServing, cfg.sizes().recordsPerNode)
	ops := genQueryOps(cfg.seed, queryServing)
	return func(_ int, tr *tracer) (instance, error) {
		return buildLiveQuery(records, ops, tr)
	}, nil
}

func buildLiveQuery(records [][]wire.Record, ops [][]queryOp, tr *tracer) (*liveQuery, error) {
	f, err := bootFleet(queryServing, tr)
	if err != nil {
		return nil, err
	}
	q := &liveQuery{f: f, records: records, ops: ops}
	if err := q.preload(tr); err != nil {
		q.close()
		return nil, err
	}
	for range ops {
		q.clientT = append(q.clientT, wire.NewTransport(1))
	}
	return q, nil
}

// preload writes every node's records straight to that node, in
// publish-batch frames of 64.
func (q *liveQuery) preload(tr *tracer) error {
	tr.begin("wire.preload")
	defer tr.end()
	loader := wire.NewTransport(1)
	defer loader.Close()
	for n, recs := range q.records {
		for lo := 0; lo < len(recs); lo += preloadBatch {
			hi := min(lo+preloadBatch, len(recs))
			resp, err := loader.RoundTrip(q.f.addrs[n],
				wire.Message{Type: wire.MsgPublishBatch, Records: recs[lo:hi]}, rpcTimeout)
			if err != nil {
				return err
			}
			if resp.Type != wire.MsgBatchAck || len(resp.Errs) > 0 {
				return fmt.Errorf("preload: node %d answered %q with %d errors", n, resp.Type, len(resp.Errs))
			}
		}
		if got := q.f.serving[n].RecordCount(); got != len(recs) {
			return fmt.Errorf("preload: node %d holds %d records, want %d", n, got, len(recs))
		}
	}
	return nil
}

func (q *liveQuery) clients() int                 { return len(q.ops) }
func (q *liveQuery) counters() map[string]float64 { return q.f.counters() }

func (q *liveQuery) close() {
	for _, t := range q.clientT {
		t.Close()
	}
	q.f.close()
}

func (q *liveQuery) query(c int, op queryOp, tr *tracer) ([]wire.Record, error) {
	tr.begin("wire.query")
	resp, err := q.clientT[c].RoundTrip(q.f.addrs[op.node],
		wire.Message{Type: wire.MsgQuery, Number: op.number, Max: replyRecords}, rpcTimeout)
	tr.end()
	if err != nil {
		return nil, err
	}
	want := min(replyRecords, len(q.records[op.node]))
	if resp.Type != wire.MsgRecords || len(resp.Records) != want {
		return nil, fmt.Errorf("query answered %q with %d records, want %d", resp.Type, len(resp.Records), want)
	}
	return resp.Records, nil
}

func (q *liveQuery) op(c, i int, tr *tracer) (int64, error) {
	_, err := q.query(c, q.ops[c][i%len(q.ops[c])], tr)
	return 1, err
}

// nearerTo orders records as the protocol promises: by |number - q|, ties by
// address.
func nearerTo(q uint64, a, b wire.Record) bool {
	da, db := absDiff(a.Number, q), absDiff(b.Number, q)
	if da != db {
		return da < db
	}
	return a.Addr < b.Addr
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// bruteNearest is the reference: a full scan keeping the k nearest in order.
func bruteNearest(recs []wire.Record, q uint64, k int) []wire.Record {
	best := make([]wire.Record, 0, k+1)
	for _, r := range recs {
		if len(best) == k && !nearerTo(q, r, best[k-1]) {
			continue
		}
		i := len(best)
		best = append(best, r)
		for ; i > 0 && nearerTo(q, r, best[i-1]); i-- {
			best[i] = best[i-1]
		}
		best[i] = r
		if len(best) > k {
			best = best[:k]
		}
	}
	return best
}

// verify checks each client's first queries against the brute-force scan:
// exactly the same records in exactly the same order.
func (q *liveQuery) verify(map[string]float64) (attempted, failed int64) {
	for c := range q.ops {
		for i := 0; i < queryVerify; i++ {
			op := q.ops[c][i]
			attempted++
			got, err := q.query(c, op, nil)
			if err != nil {
				failed++
				continue
			}
			want := bruteNearest(q.records[op.node], op.number, replyRecords)
			for j := range want {
				if got[j].Addr != want[j].Addr || got[j].Number != want[j].Number {
					failed++
					break
				}
			}
		}
	}
	return attempted, failed
}

// probe measures the transport floor, one store round trip against a full
// node (the write cost of whatever index speeds the reads) and the codec.
func (q *liveQuery) probe(tr *tracer, out map[string]float64) error {
	client := q.clientT[0]
	if err := probePing(tr, client, q.f.addrs, out); err != nil {
		return err
	}
	i := 0
	ns, err := timeBatch(tr, "wire.store_rtt", 500, func() error {
		// Re-storing a record the node already holds leaves the store as it was.
		rec := q.records[0][i%len(q.records[0])]
		i++
		resp, err := client.RoundTrip(q.f.addrs[0], wire.Message{Type: wire.MsgStore, Record: &rec}, rpcTimeout)
		if err == nil && resp.Type != wire.MsgStored {
			err = fmt.Errorf("store answered %q", resp.Type)
		}
		return err
	})
	if err != nil {
		return err
	}
	out["wire.store_rtt_us"] = ns / 1e3
	return probeCodec(tr, out)
}

func (q *liveQuery) derive(ph phase, lv layerView, out map[string]float64) {
	out["wire.boot_ms"] = lv.mean("wire.boot") / 1e6
	out["wire.preload_ms"] = lv.mean("wire.preload") / 1e6
	deriveWire(ph, out)
	// The clients send nothing but queries during a phase, so the nodes'
	// serve-latency histogram moved by queries alone.
	if n := ph.counters["serve_count"]; n > 0 {
		serveMs := ph.counters["serve_sum_ms"] / n
		out["wire.query_serve_ms"] = serveMs
		out["wire.query_wire_us"] = lv.mean("wire.query")/1e3 - serveMs*1e3
	}
}
