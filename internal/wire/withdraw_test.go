package wire

import (
	"bufio"
	"bytes"
	"testing"
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
