package wire

import (
	"bufio"
	"bytes"
	"testing"
	"time"

	"gsso/internal/obs/span"
)

func TestRemoveMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	in := Message{Type: MsgRemove, Seq: 5, Addr: "1.2.3.4:5"}
	if err := writeMessage(w, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadMessage(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != MsgRemove || out.Seq != 5 || out.Addr != in.Addr {
		t.Fatalf("round trip = %+v", out)
	}
}

func TestRemoveDeletesStoredRecord(t *testing.T) {
	nodes := cluster(t, 2, 1)
	rec := Record{
		Addr:             nodes[1].Addr(),
		Vector:           []float64{1, 2, 3},
		Number:           500,
		ExpiresUnixMilli: time.Now().Add(time.Minute).UnixMilli(),
	}
	if _, err := call(nodes[0].Addr(), Message{Type: MsgStore, Record: &rec}, testTimeout); err != nil {
		t.Fatal(err)
	}
	if nodes[0].RecordCount() != 1 {
		t.Fatal("record not stored")
	}
	if _, err := call(nodes[0].Addr(), Message{Type: MsgRemove, Addr: rec.Addr}, testTimeout); err != nil {
		t.Fatal(err)
	}
	if nodes[0].RecordCount() != 0 {
		t.Fatal("record survived remove")
	}
	// Removing an absent record is an acknowledged no-op, not an error —
	// withdrawals race with TTL expiry and must stay idempotent.
	if _, err := call(nodes[0].Addr(), Message{Type: MsgRemove, Addr: rec.Addr}, testTimeout); err != nil {
		t.Fatalf("second remove: %v", err)
	}
}

// TestWithdrawAfterPublish pins the graceful-drain path overlayd runs on
// SIGTERM: publish, then withdraw, and the record is gone from every
// owner instead of lingering until the TTL sweep.
func TestWithdrawAfterPublish(t *testing.T) {
	nodes := cluster(t, 4, 2)
	n := nodes[3]

	// A node that never published withdraws trivially.
	if acked, err := n.Withdraw(testTimeout); err != nil || acked != 0 {
		t.Fatalf("fresh withdraw = %d, %v", acked, err)
	}

	rec, err := n.Publish(1, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	owners := n.OwnersOf(rec.Number, 1)
	if len(owners) == 0 {
		t.Fatal("no owners")
	}
	resp, err := call(owners[0], Message{Type: MsgQuery, Number: rec.Number, Max: 10}, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	present := false
	for _, r := range resp.Records {
		if r.Addr == n.Addr() {
			present = true
		}
	}
	if !present {
		t.Fatal("published record not queryable")
	}

	acked, err := n.Withdraw(testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if acked == 0 {
		t.Fatal("no owner acknowledged the withdrawal")
	}
	resp, err = call(owners[0], Message{Type: MsgQuery, Number: rec.Number, Max: 10}, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range resp.Records {
		if r.Addr == n.Addr() {
			t.Fatal("withdrawn record still served")
		}
	}
}

// TestBatchPartialFailureReportsPerRecordErrors: a publish-batch frame
// where one record is storable and one is not must store the good record
// and report the rejection in the aligned per-record error slot — not
// fail the whole frame, not silently drop the bad record.
func TestBatchPartialFailureReportsPerRecordErrors(t *testing.T) {
	nodes := cluster(t, 2, 1)
	exp := time.Now().Add(time.Minute).UnixMilli()
	recs := []Record{
		{Addr: "good:1", Number: 42, ExpiresUnixMilli: exp},
		{Number: 43, ExpiresUnixMilli: exp}, // no addr: unstorable
	}
	resp, _, err := nodes[1].rpc(span.Context{}, nodes[0].Addr(), Message{Type: MsgPublishBatch, Records: recs}, testTimeout)
	if err != nil {
		t.Fatalf("publish-batch failed outright: %v", err)
	}
	errs := resp.Errs
	if len(errs) != len(recs) {
		t.Fatalf("got %d per-record errors for %d records", len(errs), len(recs))
	}
	if errs[0] != "" {
		t.Fatalf("storable record rejected: %q", errs[0])
	}
	if errs[1] == "" {
		t.Fatal("unstorable record not reported")
	}
	if got := nodes[0].RecordCount(); got != 1 {
		t.Fatalf("owner stores %d records, want 1", got)
	}

	// A fully-storable batch acks with no per-record errors at all.
	resp, _, err = nodes[1].rpc(span.Context{}, nodes[0].Addr(), Message{Type: MsgPublishBatch, Records: []Record{
		{Addr: "also-good:1", Number: 44, ExpiresUnixMilli: exp},
	}}, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Errs) != 0 {
		t.Fatalf("clean batch returned errors: %v", resp.Errs)
	}
}
