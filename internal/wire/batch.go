package wire

import (
	"fmt"
	"sync"
	"time"

	"gsso/internal/obs/span"
)

// maxBatchRecords caps one MsgPublishBatch frame; a fuller queue flushes
// immediately instead of waiting out the window.
const maxBatchRecords = 64

// batcher coalesces soft-state publishes and refreshes headed for the
// same ring owner into MsgPublishBatch frames. Records enqueue per
// owner; a background loop flushes every batch window, a full queue
// flushes inline, and Flush drains everything synchronously — the
// Withdraw/Close path calls it so a drain never abandons pending
// records.
type batcher struct {
	n      *Node
	window time.Duration

	mu      sync.Mutex
	pending map[string][]Record
}

func newBatcher(n *Node, window time.Duration) *batcher {
	return &batcher{n: n, window: window, pending: make(map[string][]Record)}
}

// loop flushes pending batches every window until the node stops.
func (b *batcher) loop() {
	defer b.n.wg.Done()
	ticker := time.NewTicker(b.window)
	defer ticker.Stop()
	for {
		select {
		case <-b.n.stop:
			return
		case <-ticker.C:
			b.Flush(b.n.opt.batchTimeout)
		}
	}
}

// Enqueue queues one record for owner. A queue at capacity is flushed
// inline on the calling goroutine.
func (b *batcher) Enqueue(owner string, rec Record) {
	b.mu.Lock()
	b.pending[owner] = append(b.pending[owner], rec)
	var full []Record
	if len(b.pending[owner]) >= maxBatchRecords {
		full = b.pending[owner]
		delete(b.pending, owner)
	}
	b.mu.Unlock()
	if full != nil {
		b.send(owner, full, b.n.opt.batchTimeout)
	}
}

// Pending reports how many records are queued across all owners.
func (b *batcher) Pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	total := 0
	for _, recs := range b.pending {
		total += len(recs)
	}
	return total
}

// Flush synchronously sends every pending batch.
func (b *batcher) Flush(timeout time.Duration) {
	b.mu.Lock()
	batches := b.pending
	b.pending = make(map[string][]Record)
	b.mu.Unlock()
	for owner, recs := range batches {
		b.send(owner, recs, timeout)
	}
}

// send ships one batch and accounts the outcome: per-record errors from
// a partially failed batch and whole-frame failures both land in
// wire_batch_errors_total; soft-state heals the lost records on the next
// refresh tick either way. Each flushed frame roots its own trace (a
// frame coalesces records from many enqueuers, so no single publish can
// parent it).
func (b *batcher) send(owner string, recs []Record, timeout time.Duration) {
	n := b.n
	root := n.opt.spans.StartRoot("publish-batch")
	n.metrics.batchSize.Observe(float64(len(recs)))
	resp, _, err := n.rpc(root.Context(), owner, Message{Type: MsgPublishBatch, Records: recs}, timeout)
	if err == nil && resp.Errs != nil && len(resp.Errs) != len(recs) {
		err = fmt.Errorf("wire: batch ack carries %d errors for %d records", len(resp.Errs), len(recs))
	}
	root.Finish(span.Outcome(err), 0, err)
	if err != nil {
		n.metrics.batchErrors.Add(float64(len(recs)))
		n.opt.logger.Debug("wire: batch flush failed",
			"node", n.addr, "owner", owner, "records", len(recs), "err", err)
		return
	}
	failed := 0
	for i, e := range resp.Errs {
		if e == "" {
			continue
		}
		failed++
		n.opt.logger.Debug("wire: batch record rejected",
			"node", n.addr, "owner", owner, "record", recs[i].Addr, "err", e)
	}
	n.metrics.batchRecords.Add(float64(len(recs) - failed))
	if failed > 0 {
		n.metrics.batchErrors.Add(float64(failed))
	}
}
