package wire

import (
	"fmt"
	"math/big"
	"slices"
	"strings"
	"testing"
	"time"

	"gsso/internal/obs"
)

// The owner side of the protocol, without sockets: serveMessage over a
// recordStore and a peerRing, on a clock the test sets.

// t0 is the tests' virtual now.
var t0 = time.UnixMilli(1_700_000_000_000)

// testStore returns an empty store exporting its size to a gauge of a
// private registry, which it also returns.
func testStore() (*recordStore, *obs.Gauge) {
	g := obs.NewRegistry().Gauge("wire_records", "").With()
	return newRecordStore(g), g
}

// testRing is a ring of the given peers on a width-bit curve, owned by
// "self" while empty.
func testRing(width uint, peers ...string) *peerRing {
	return &peerRing{peers: normalizePeers(peers), epoch: 1, self: "self", width: width}
}

// rec is a record of addr at number that expires ttl after t0.
func rec(addr string, number uint64, ttl time.Duration) Record {
	return Record{Addr: addr, Number: number, ExpiresUnixMilli: t0.Add(ttl).UnixMilli()}
}

// holds reports whether the store has a record of addr, expired or not.
func (s *recordStore) holds(addr string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.recs[addr]
	return ok
}

// serve sends one request through serveMessage at now with a fresh scratch.
func serve(s *recordStore, req Message, now time.Time) Message {
	var rs replyScratch
	return serveMessage(s, testRing(15), req, now, &rs)
}

func addrsOf(recs []Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Addr
	}
	return out
}

func TestServePing(t *testing.T) {
	s, _ := testStore()
	if resp := serve(s, Message{Type: MsgPing, Seq: 3}, t0); resp.Type != MsgPong || resp.Seq != 3 {
		t.Fatalf("ping = %+v", resp)
	}
	if s.len() != 0 {
		t.Fatal("a ping changed the store")
	}
}

// TestServeStore: a store keeps one record per address, the latest copy,
// and a store without a record or an address is an error that stores
// nothing.
func TestServeStore(t *testing.T) {
	s, size := testStore()
	for _, req := range []Message{{Type: MsgStore, Seq: 1}, {Type: MsgStore, Seq: 1, Record: &Record{Number: 5}}} {
		if resp := serve(s, req, t0); resp.Type != MsgError || resp.Seq != 1 {
			t.Fatalf("store of %+v = %+v, want an error", req.Record, resp)
		}
	}
	a := rec("a:1", 10, time.Minute)
	if resp := serve(s, Message{Type: MsgStore, Seq: 2, Record: &a}, t0); resp.Type != MsgStored || resp.Seq != 2 {
		t.Fatalf("store = %+v", resp)
	}
	a.Number = 20 // a re-publish from a new position replaces the old copy
	serve(s, Message{Type: MsgStore, Record: &a}, t0)
	if s.len() != 1 || size.Value() != 1 {
		t.Fatalf("len = %d, wire_records = %v after two stores of one address, want 1", s.len(), size.Value())
	}
	got := serve(s, Message{Type: MsgQuery, Number: 20, Max: 5}, t0).Records
	if len(got) != 1 || got[0].Number != 20 {
		t.Fatalf("query = %+v, want the re-published copy", got)
	}
}

// TestQueryOrdersByNumberDistance: a query returns the Max records nearest
// to its number, ties by address, 8 when Max is unset.
func TestQueryOrdersByNumberDistance(t *testing.T) {
	s, _ := testStore()
	for i, num := range []uint64{100, 200, 150, 1000} {
		s.put(rec(fmt.Sprintf("r%c", 'a'+i), num, time.Minute))
	}
	resp := serve(s, Message{Type: MsgQuery, Seq: 4, Number: 160, Max: 3}, t0)
	if resp.Type != MsgRecords || resp.Seq != 4 {
		t.Fatalf("query = %+v", resp)
	}
	if got := addrsOf(resp.Records); !slices.Equal(got, []string{"rc", "rb", "ra"}) { // 150, 200, 100
		t.Fatalf("order = %v, want [rc rb ra]", got)
	}
	// 140 and 160 are both 10 from 150: the lower address goes first.
	s.put(rec("z", 140, time.Minute), rec("y", 160, time.Minute))
	if got := addrsOf(serve(s, Message{Type: MsgQuery, Number: 150, Max: 3}, t0).Records); !slices.Equal(got, []string{"rc", "y", "z"}) {
		t.Fatalf("tie order = %v, want [rc y z]", got)
	}
	for i := range 10 {
		s.put(rec(fmt.Sprintf("s%d", i), uint64(i), time.Minute))
	}
	if got := serve(s, Message{Type: MsgQuery, Number: 0}, t0).Records; len(got) != 8 {
		t.Fatalf("query without Max returned %d records, want 8", len(got))
	}
}

// TestQuerySweepsExpired: a record is served up to its deadline, and the
// first query after it deletes it.
func TestQuerySweepsExpired(t *testing.T) {
	s, size := testStore()
	s.put(rec("dead", 5, time.Second), rec("live", 6, time.Minute))
	q := Message{Type: MsgQuery, Number: 5, Max: 5}
	if got := addrsOf(serve(s, q, t0.Add(time.Second)).Records); !slices.Equal(got, []string{"dead", "live"}) {
		t.Fatalf("at its deadline the query returned %v, want both records", got)
	}
	if got := addrsOf(serve(s, q, t0.Add(time.Second+time.Millisecond)).Records); !slices.Equal(got, []string{"live"}) {
		t.Fatalf("past the deadline the query returned %v, want [live]", got)
	}
	if s.len() != 1 || size.Value() != 1 {
		t.Fatalf("len = %d, wire_records = %v: the expired record was not swept", s.len(), size.Value())
	}
}

// TestRemoveDeletesStoredRecord: remove deletes the record of its
// address; removing an absent record is an acknowledged no-op, not an
// error — withdrawals race with TTL expiry and must stay idempotent.
func TestRemoveDeletesStoredRecord(t *testing.T) {
	s, size := testStore()
	s.put(rec("a:1", 500, time.Minute), rec("b:1", 501, time.Minute))
	for range 2 {
		resp := serve(s, Message{Type: MsgRemove, Seq: 7, Addr: "a:1"}, t0)
		if resp.Type != MsgRemoved || resp.Seq != 7 || resp.Addr != "a:1" {
			t.Fatalf("remove = %+v", resp)
		}
		if s.len() != 1 || size.Value() != 1 {
			t.Fatalf("len = %d, wire_records = %v after remove, want 1", s.len(), size.Value())
		}
	}
	if resp := serve(s, Message{Type: MsgRemove}, t0); resp.Type != MsgError {
		t.Fatalf("remove without addr = %+v, want an error", resp)
	}
}

// TestBatchPartialFailureReportsPerRecordErrors: a publish-batch frame
// where one record is storable and one is not must store the good record
// and report the rejection in the aligned per-record error slot — not
// fail the whole frame, not silently drop the bad record. The next batch
// on the same connection scratch reports no stale errors.
func TestBatchPartialFailureReportsPerRecordErrors(t *testing.T) {
	s, size := testStore()
	ring := testRing(15)
	var rs replyScratch
	batch := []Record{rec("good:1", 42, time.Minute), rec("", 43, time.Minute)}
	resp := serveMessage(s, ring, Message{Type: MsgPublishBatch, Seq: 8, Records: batch}, t0, &rs)
	if resp.Type != MsgBatchAck || resp.Seq != 8 {
		t.Fatalf("publish-batch = %+v", resp)
	}
	if len(resp.Errs) != 2 || resp.Errs[0] != "" || resp.Errs[1] == "" {
		t.Fatalf("per-record errors = %q, want [\"\" <error>]", resp.Errs)
	}
	if s.len() != 1 || size.Value() != 1 {
		t.Fatalf("len = %d, wire_records = %v, want 1", s.len(), size.Value())
	}
	batch = []Record{rec("also-good:1", 44, time.Minute), rec("good:2", 45, time.Minute)}
	if resp := serveMessage(s, ring, Message{Type: MsgPublishBatch, Records: batch}, t0, &rs); resp.Type != MsgBatchAck || len(resp.Errs) != 0 {
		t.Fatalf("clean batch = %+v, want an ack with no errors", resp)
	}
	if s.len() != 3 {
		t.Fatalf("len = %d, want 3", s.len())
	}
	if resp := serveMessage(s, ring, Message{Type: MsgPublishBatch}, t0, &rs); resp.Type != MsgError {
		t.Fatalf("empty batch = %+v, want an error", resp)
	}
}

func TestServePeers(t *testing.T) {
	s, _ := testStore()
	ring := testRing(15, "c:1", "a:1", "b:1")
	ring.epoch = 4
	var rs replyScratch
	resp := serveMessage(s, ring, Message{Type: MsgPeers, Seq: 9}, t0, &rs)
	if resp.Type != MsgPeersReply || resp.Seq != 9 || resp.Epoch != 4 || !slices.Equal(resp.Peers, []string{"a:1", "b:1", "c:1"}) {
		t.Fatalf("peers = %+v", resp)
	}
}

func TestDispatchUnknownType(t *testing.T) {
	s, _ := testStore()
	if resp := serve(s, Message{Type: "bogus", Seq: 9}, t0); resp.Type != MsgError || resp.Seq != 9 {
		t.Fatalf("bogus request = %+v", resp)
	}
}

// TestDispatchAnswersReplyTable sends every message type through
// serveMessage: a request type must get exactly its replyType reply, and
// a type with no replyType entry must get MsgError — so a request type
// added to serveMessage without a table entry fails here.
func TestDispatchAnswersReplyTable(t *testing.T) {
	s, _ := testStore()
	r := rec("a:1", 0, time.Minute)
	valid := map[MsgType]Message{ // the fields a well-formed request carries
		MsgStore:        {Record: &r},
		MsgRemove:       {Addr: r.Addr},
		MsgPublishBatch: {Records: []Record{r}},
	}
	for typ := range msgTypeCode {
		req := valid[typ]
		req.Type = typ
		got := serve(s, req, t0).Type
		want, isRequest := replyType[typ]
		switch {
		case isRequest && got != want:
			t.Errorf("serveMessage(%s) = %s, replyType says %s", typ, got, want)
		case !isRequest && got != MsgError:
			t.Errorf("serveMessage(%s) = %s with no replyType entry", typ, got)
		}
	}
}

// TestRecordStoreRehome is SetPeers' re-homing rule: after a ring swap
// the store keeps exactly the live records whose new owners include this
// node, hands off the others, and drops the expired ones.
func TestRecordStoreRehome(t *testing.T) {
	const self, replication = "n2", 2
	ring := testRing(8, "n0", "n1", "n2", "n3")
	s, size := testStore()
	for num := uint64(0); num < 256; num += 8 {
		s.put(rec(fmt.Sprintf("r%03d", num), num, time.Minute))
	}
	s.put(rec("expired", 130, time.Second)) // in n2's range
	owned := func(r Record) bool { return slices.Contains(ring.owners(r.Number, replication), self) }
	moved := s.rehome(owned, t0.Add(2*time.Second))
	for _, r := range moved {
		if owned(r) {
			t.Fatalf("record %s handed off, but %s still owns it", r.Addr, self)
		}
	}
	kept := serve(s, Message{Type: MsgQuery, Max: 1000}, t0).Records
	for _, r := range kept {
		if !owned(r) || r.Addr == "expired" {
			t.Fatalf("record %s kept, but %s does not own it", r.Addr, self)
		}
	}
	// n2 owns slot 2 as primary and slot 1 as replica: numbers 64..191.
	if len(kept) != 16 || len(moved) != 16 || s.len() != 16 || size.Value() != 16 {
		t.Fatalf("kept %d, moved %d, len %d, wire_records %v; want 16 each", len(kept), len(moved), s.len(), size.Value())
	}
}

// oldSlot is the placement rule before the 128-bit product: right where
// number·P fits in 64 bits.
func oldSlot(width uint, p int, number uint64) int {
	return int(min(number*uint64(p)/(uint64(1)<<width), uint64(p-1)))
}

func peerNames(p int) []string {
	out := make([]string, p)
	for i := range out {
		out[i] = fmt.Sprintf("p%02d", i)
	}
	return out
}

// TestRingSlotMatchesOldRule: on the curves where the old rule did not
// overflow — every number of the 15-bit default, and the numbers around
// every slot boundary of the 18-bit one — placement is unchanged, at 1 to
// 64 peers.
func TestRingSlotMatchesOldRule(t *testing.T) {
	for p := 1; p <= 64; p++ {
		r15, r18 := testRing(15, peerNames(p)...), testRing(18, peerNames(p)...)
		for num := uint64(0); num < 1<<15; num++ {
			if got, want := r15.slot(num), oldSlot(15, p, num); got != want {
				t.Fatalf("15 bits, %d peers: slot(%d) = %d, want %d", p, num, got, want)
			}
		}
		for k := uint64(0); k <= uint64(p); k++ {
			b := (k<<18 + uint64(p) - 1) / uint64(p) // first number of slot k
			for num := b - min(b, 2); num <= b+2 && num < 1<<18; num++ {
				if got, want := r18.slot(num), oldSlot(18, p, num); got != want {
					t.Fatalf("18 bits, %d peers: slot(%d) = %d, want %d", p, num, got, want)
				}
			}
		}
	}
}

// TestRingSlotExactOnWideCurves: the slot is floor(number·P / 2^width) on
// curves where number·P overflows 64 bits, up to the full 64-bit curve.
func TestRingSlotExactOnWideCurves(t *testing.T) {
	exact := func(width uint, p int, num uint64) int {
		x := new(big.Int).Mul(new(big.Int).SetUint64(num), big.NewInt(int64(p)))
		return int(x.Rsh(x, width).Int64())
	}
	cases := []struct {
		name   string
		width  uint
		peers  int
		number uint64
		want   int
	}{
		// One peer on a 4×16 curve: the old rule divided by zero.
		{"64 bits, 1 peer, max", 64, 1, ^uint64(0), 0},
		{"64 bits, 1 peer, 0", 64, 1, 0, 0},
		{"64 bits, 2 peers, below half", 64, 2, 1<<63 - 1, 0},
		{"64 bits, 2 peers, half", 64, 2, 1 << 63, 1},
		{"64 bits, 3 peers, max", 64, 3, ^uint64(0), 2},
		// 2×30 bits at 32 peers: the old rule's product wrapped, and only
		// slots 0-15 owned anything.
		{"60 bits, 32 peers, max", 60, 32, 1<<60 - 1, 31},
		{"60 bits, 32 peers, last slot", 60, 32, 31 << 55, 31},
		{"60 bits, 32 peers, below last slot", 60, 32, 31<<55 - 1, 30},
		{"60 bits, 32 peers, slot 16", 60, 32, 16 << 55, 16},
	}
	for _, tc := range cases {
		r := testRing(tc.width, peerNames(tc.peers)...)
		if got := r.slot(tc.number); got != tc.want || got != exact(tc.width, tc.peers, tc.number) {
			t.Errorf("%s: slot(%d) = %d, want %d", tc.name, tc.number, got, tc.want)
		}
	}
	r := testRing(60, peerNames(32)...)
	for s := range 32 {
		if got := r.slot(uint64(s) << 55); got != s {
			t.Fatalf("60 bits, 32 peers: slot %d owns nothing (slot(%d<<55) = %d)", s, s, got)
		}
	}
}

// TestRingOwners: owners are the primary and its ring successors, k
// clamped to the ring; an empty ring leaves every number to the node.
func TestRingOwners(t *testing.T) {
	r := testRing(8, "d", "b", "a", "c")
	for _, tc := range []struct {
		number uint64
		k      int
		want   []string
	}{
		{0, 1, []string{"a"}},
		{255, 2, []string{"d", "a"}},
		{100, 0, []string{"b"}},
		{200, 9, []string{"d", "a", "b", "c"}},
	} {
		if got := r.owners(tc.number, tc.k); !slices.Equal(got, tc.want) {
			t.Errorf("owners(%d, %d) = %v, want %v", tc.number, tc.k, got, tc.want)
		}
	}
	empty := testRing(8)
	if got := empty.owners(7, 2); empty.owner(7) != "self" || !slices.Equal(got, []string{"self"}) {
		t.Fatalf("empty ring: owner = %q, owners = %v; want the node itself", empty.owner(7), got)
	}
}

// TestOwnerOfFullWidthCurve: a node on a 64-bit curve (4 dims × 16 bits)
// with one peer places every number, instead of dividing by zero.
func TestOwnerOfFullWidthCurve(t *testing.T) {
	cfg := SpaceConfig{Landmarks: []string{"a", "b", "c", "d"}, IndexDims: 4, BitsPerDim: 16, MaxRTTMs: 100}
	n := startNode(t, cfg, []string{"x:1"})
	if got := n.OwnerOf(^uint64(0)); got != "x:1" {
		t.Fatalf("OwnerOf(max) = %q, want x:1", got)
	}
}

// storeModel is recordStore's reference: a slice sorted by address, and
// a nearest that picks the closest remaining record one at a time.
type storeModel struct{ recs []Record }

func (m *storeModel) put(recs ...Record) {
	for _, r := range recs {
		if r.Addr == "" {
			continue
		}
		i, found := slices.BinarySearchFunc(m.recs, r.Addr, func(e Record, a string) int { return strings.Compare(e.Addr, a) })
		if found {
			m.recs[i] = r
		} else {
			m.recs = slices.Insert(m.recs, i, r)
		}
	}
}

func (m *storeModel) remove(addr string) {
	m.recs = slices.DeleteFunc(m.recs, func(r Record) bool { return r.Addr == addr })
}

func (m *storeModel) sweep(now time.Time) {
	m.recs = slices.DeleteFunc(m.recs, func(r Record) bool { return r.ExpiresUnixMilli < now.UnixMilli() })
}

func (m *storeModel) nearest(number uint64, max int, now time.Time) []Record {
	m.sweep(now)
	dist := func(r Record) uint64 { return r.Number - min(r.Number, number) + number - min(r.Number, number) }
	left := slices.Clone(m.recs)
	var out []Record
	for len(out) < max && len(left) > 0 {
		best := 0
		for i, r := range left {
			if d, bd := dist(r), dist(left[best]); d < bd || d == bd && r.Addr < left[best].Addr {
				best = i
			}
		}
		out = append(out, left[best])
		left = slices.Delete(left, best, best+1)
	}
	return out
}

func (m *storeModel) rehome(keep func(Record) bool, now time.Time) []Record {
	m.sweep(now)
	var moved []Record
	m.recs = slices.DeleteFunc(m.recs, func(r Record) bool {
		if keep(r) {
			return false
		}
		moved = append(moved, r)
		return true
	})
	return moved
}

func sameRecords(a, b []Record) bool {
	return slices.EqualFunc(a, b, func(x, y Record) bool {
		return x.Addr == y.Addr && x.Number == y.Number && x.ExpiresUnixMilli == y.ExpiresUnixMilli
	})
}

// FuzzRecordStore runs a byte script of stores, batch stores, removes,
// clock advances, queries and re-homes against recordStore and
// storeModel: every query must return the same records in the same
// order, every re-home hand off the same records, and the sizes agree
// after every step. Addresses come from a pool of 8, so re-stores are
// common; numbers sit near 0 and near the top of the 64-bit range, so
// distance ties and wide distances are too.
func FuzzRecordStore(f *testing.F) {
	f.Add([]byte{0, 1, 5, 9, 0, 2, 5, 9, 4, 5, 3, 4, 5, 9})
	f.Add([]byte{1, 3, 1, 10, 8, 2, 12, 8, 0, 3, 14, 8, 3, 7, 4, 11, 7, 5, 2, 4, 0, 9})
	f.Add([]byte{0, 7, 250, 15, 0, 6, 3, 15, 4, 255, 4, 2, 7, 4, 3, 3, 5, 1, 4, 0, 9})
	f.Fuzz(func(t *testing.T, script []byte) {
		s, size := testStore()
		var m storeModel
		var rs replyScratch
		now := t0
		next := func() byte {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return b
		}
		record := func() Record {
			addr, n, ttl := next()%8, next(), next()%16
			num := uint64(n % 32)
			if n >= 224 {
				num = ^uint64(0) - num
			}
			return Record{Addr: fmt.Sprintf("a%d", addr), Number: num, ExpiresUnixMilli: now.UnixMilli() + int64(ttl) - 4}
		}
		for step := 0; len(script) > 0; step++ {
			switch op := next(); op % 6 {
			case 0:
				r := record()
				s.put(r)
				m.put(r)
			case 1:
				batch := make([]Record, 1+next()%4)
				for i := range batch {
					if batch[i] = record(); next()%5 == 0 {
						batch[i].Addr = ""
					}
				}
				s.put(batch...)
				m.put(batch...)
			case 2:
				addr := fmt.Sprintf("a%d", next()%8)
				s.remove(addr)
				m.remove(addr)
			case 3:
				now = now.Add(time.Duration(next()%8) * time.Millisecond)
			case 4:
				n, max := next(), 1+int(next()%10)
				num := uint64(n % 40)
				if n >= 224 {
					num = ^uint64(0) - uint64(n%32)
				}
				got, want := s.nearest(num, max, now, &rs), m.nearest(num, max, now)
				if !sameRecords(got, want) {
					t.Fatalf("step %d: nearest(%d, %d) = %v, model %v", step, num, max, got, want)
				}
			case 5:
				bit := next() % 6
				keep := func(r Record) bool { return r.Number>>bit&1 == 0 }
				got, want := s.rehome(keep, now), m.rehome(keep, now)
				slices.SortFunc(got, func(a, b Record) int { return strings.Compare(a.Addr, b.Addr) })
				if !sameRecords(got, want) {
					t.Fatalf("step %d: rehome(bit %d) moved %v, model %v", step, bit, got, want)
				}
			}
			if s.len() != len(m.recs) || size.Value() != float64(len(m.recs)) {
				t.Fatalf("step %d: len = %d, wire_records = %v, model %d", step, s.len(), size.Value(), len(m.recs))
			}
		}
	})
}
