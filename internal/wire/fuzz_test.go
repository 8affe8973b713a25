package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"gsso/internal/obs/span"
)

// binFrame encodes m as one binary frame for seed corpora.
func binFrame(m Message) []byte {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := writeMessage(bw, m); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// sameMessage compares the semantic payload of two messages: everything
// the dispatcher and multiplexer act on.
func sameMessage(t *testing.T, what string, a, b Message) {
	t.Helper()
	if a.Type != b.Type || a.Seq != b.Seq || a.Number != b.Number ||
		a.Max != b.Max || a.Addr != b.Addr || a.Err != b.Err ||
		len(a.Records) != len(b.Records) || len(a.Errs) != len(b.Errs) {
		t.Fatalf("%s mangled message:\n in: %+v\nout: %+v", what, a, b)
	}
	for i := range a.Errs {
		if a.Errs[i] != b.Errs[i] {
			t.Fatalf("%s mangled err %d: %q vs %q", what, i, a.Errs[i], b.Errs[i])
		}
	}
	if (a.Trace == nil) != (b.Trace == nil) ||
		(a.Trace != nil && *a.Trace != *b.Trace) {
		t.Fatalf("%s mangled trace context:\n in: %+v\nout: %+v", what, a.Trace, b.Trace)
	}
	if (a.Record == nil) != (b.Record == nil) {
		t.Fatalf("%s mangled record presence", what)
	}
	recs := a.Records
	brecs := b.Records
	if a.Record != nil {
		recs = append([]Record{*a.Record}, recs...)
		brecs = append([]Record{*b.Record}, brecs...)
	}
	for i := range recs {
		if brecs[i].Addr != recs[i].Addr ||
			brecs[i].Number != recs[i].Number ||
			brecs[i].ExpiresUnixMilli != recs[i].ExpiresUnixMilli ||
			len(brecs[i].Vector) != len(recs[i].Vector) {
			t.Fatalf("%s mangled record %d:\n in: %+v\nout: %+v", what, i, recs[i], brecs[i])
		}
	}
	if a.Epoch != b.Epoch || len(a.Peers) != len(b.Peers) {
		t.Fatalf("%s mangled membership:\n in: %+v\nout: %+v", what, a, b)
	}
	for i := range a.Peers {
		if a.Peers[i] != b.Peers[i] {
			t.Fatalf("%s mangled peer %d: %q vs %q", what, i, a.Peers[i], b.Peers[i])
		}
	}
}

// FuzzReadMessage fuzzes the wire codec: arbitrary byte streams must
// never panic or hang the frame reader, every accepted frame must
// survive a re-encode/re-read round trip unchanged, and no accepted
// frame may exceed the size cap. The seed corpus (here and in
// testdata/fuzz/FuzzReadMessage) covers well-formed frames of every
// shape, truncated, corrupted, oversized and stale-version frames, and
// streams that are not binary at all (seed_bin_nego is a version-2
// codec-negotiation frame, kept verbatim: it must be rejected).
func FuzzReadMessage(f *testing.F) {
	f.Add(binFrame(Message{Type: MsgPing, Seq: 1}))
	f.Add(binFrame(Message{Type: MsgPong, Seq: 18446744073709551615}))
	f.Add(binFrame(Message{Type: MsgStore, Seq: 2, Record: &Record{
		Addr: "a:1", Vector: []float64{1.5, 2}, Number: 7, ExpiresUnixMilli: 99}}))
	f.Add(binFrame(Message{Type: MsgPublishBatch, Seq: 3, Records: []Record{
		{Addr: "a:1", Number: 1, ExpiresUnixMilli: 1}, {Addr: "b:2", Number: 2, ExpiresUnixMilli: 2}}}))
	f.Add(binFrame(Message{Type: MsgBatchAck, Seq: 3, Errs: []string{"", "store without addr"}}))
	f.Add(binFrame(Message{Type: MsgError, Seq: 4, Err: "boom"}))
	f.Add(binFrame(Message{Type: MsgPing, Seq: 8, Trace: &span.Context{TraceID: 12345, SpanID: 678, Sampled: true}}))
	f.Add(binFrame(Message{Type: MsgStore, Seq: 9, Record: &Record{Addr: "a:1", Number: 7, ExpiresUnixMilli: 99},
		Trace: &span.Context{TraceID: 18446744073709551615, SpanID: 1}}))
	f.Add(binFrame(Message{Type: MsgPing, Seq: 10, Trace: &span.Context{}})) // zero trace context
	stale := binFrame(Message{Type: MsgPing, Seq: 11})
	stale[1] = 2
	f.Add(stale) // version byte of the retired negotiating layout
	trailing := append(binFrame(Message{Type: MsgPing, Seq: 12}), 0)
	trailing[4]++
	f.Add(trailing) // payload carries a byte no field claims
	query := binFrame(Message{Type: MsgQuery, Seq: 5, Number: 123, Max: 8})
	f.Add(query[:len(query)-1])                      // truncated: last payload byte missing
	f.Add(query[:5])                                 // truncated mid-header
	f.Add([]byte("this is not json\n"))              // neither binary nor JSON
	f.Add([]byte("{\"type\":\"ping\",\"seq\":1}\n")) // a JSON-codec client's frame
	f.Add([]byte{})                                  // empty stream
	f.Add(binHeader(1, maxFrame+1))                  // payload length past the cap
	big := make([]Record, 80)
	for i := range big {
		big[i] = Record{Addr: "10.0.0.1:9000", Vector: []float64{1, 2, 3}, Number: uint64(i)}
	}
	f.Add(binFrame(Message{Type: MsgRecords, Seq: 13, Records: big})) // spans bufio fills
	f.Add(append(binFrame(Message{Type: MsgRecords, Seq: 6, Records: []Record{}}),
		binFrame(Message{Type: MsgPing, Seq: 7})...)) // two frames back to back

	// Every message shape: plain, record-bearing, batched, membership.
	f.Add(binFrame(Message{Type: MsgPing, Seq: 1}))
	f.Add(binFrame(Message{Type: MsgPong, Seq: 2}))
	f.Add(binFrame(Message{Type: MsgStore, Seq: 3, Record: &Record{
		Addr: "a:1", Vector: []float64{1.5, 2}, Number: 7, ExpiresUnixMilli: 99}}))
	f.Add(binFrame(Message{Type: MsgQuery, Seq: 4, Number: 123, Max: -8}))
	f.Add(binFrame(Message{Type: MsgPublishBatch, Seq: 5, Records: []Record{
		{Addr: "a:1", Number: 1}, {Addr: "b:2", Number: 2, ExpiresUnixMilli: -2}}}))
	f.Add(binFrame(Message{Type: MsgBatchAck, Seq: 6, Errs: []string{"", "boom"}}))
	truncated := binFrame(Message{Type: MsgRemove, Seq: 7, Addr: "a:1"})
	f.Add(truncated[:len(truncated)-3]) // binary frame cut mid-payload
	corrupt := binFrame(Message{Type: MsgPing, Seq: 8})
	corrupt[2] = 0xee // unknown type code
	f.Add(corrupt)
	retired := binFrame(Message{Type: MsgPing, Seq: 9})
	retired[2] = 8 // the removed stats-reply type code: rejected
	f.Add(retired)
	f.Add(binFrame(Message{Type: MsgPeers, Seq: 11}))
	f.Add(binFrame(Message{Type: MsgPeersReply, Seq: 12, Epoch: 3,
		Peers: []string{"a:1", "b:2", "c:3"}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		var st decodeState
		m, err := readMessageInto(r, &st)
		if err != nil {
			return // rejected input: the only requirement is no panic/hang
		}
		// An accepted frame re-encodes and re-reads to the same message:
		// the codec cannot silently alter Seq (the multiplexer's match
		// key), the type, or the payload shape — even for payloads JSON
		// cannot carry (NaN vector components).
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if err := writeMessage(bw, m); err != nil {
			if err == errFrameTooLarge {
				return // outbound writer refuses frames past the cap
			}
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		var st2 decodeState
		m2, err := readMessageInto(bufio.NewReader(&buf), &st2)
		if err != nil {
			t.Fatalf("re-read of accepted frame failed: %v", err)
		}
		sameMessage(t, "round trip", m, m2)
	})
}

// FuzzCodecDifferential keeps JSON as a test-side oracle for the binary
// layout: any message JSON can describe (decoded with json.Unmarshal
// through Message's struct tags) must encode to binary and decode back
// to the same message, compared on its full JSON form. A Message field
// the binary layout forgets to carry shows up as a diff here once a
// seed sets it. Binary-only payloads (NaN vector components) are out of
// reach of the oracle; FuzzReadMessage covers those.
func FuzzCodecDifferential(f *testing.F) {
	f.Add([]byte("{\"type\":\"ping\",\"seq\":1}\n"))
	f.Add([]byte("{\"type\":\"pong\",\"seq\":2,\"codec\":2}\n"))
	f.Add([]byte("{\"type\":\"store\",\"seq\":3,\"record\":{\"addr\":\"a:1\",\"vector\":[1.5,2],\"number\":7,\"expires_unix_milli\":-99}}\n"))
	f.Add([]byte("{\"type\":\"query\",\"seq\":4,\"number\":18446744073709551615,\"max\":-8}\n"))
	f.Add([]byte("{\"type\":\"records\",\"seq\":5,\"records\":[{\"addr\":\"a:1\",\"number\":1},{\"addr\":\"b:2\",\"vector\":[0.5],\"number\":2}]}\n"))
	f.Add([]byte("{\"type\":\"batch-ack\",\"seq\":6,\"errs\":[\"\",\"store without addr\",\"\"]}\n"))
	f.Add([]byte("{\"type\":\"error\",\"seq\":7,\"err\":\"boom\"}\n"))
	f.Add([]byte("{\"type\":\"remove\",\"seq\":8,\"addr\":\"1.2.3.4:5\",\"trace\":{\"trace_id\":12345,\"span_id\":678,\"sampled\":true}}\n"))
	f.Add([]byte("{\"type\":\"peers\",\"seq\":9}\n"))
	f.Add([]byte("{\"type\":\"peers-reply\",\"seq\":10,\"epoch\":4,\"peers\":[\"a:1\",\"b:2\"]}\n"))
	f.Add([]byte("{\"type\":\"peers-reply\",\"seq\":11,\"epoch\":0,\"peers\":[]}\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var m Message
		if err := json.Unmarshal(data, &m); err != nil {
			return
		}
		var buf bytes.Buffer
		if err := writeMessage(bufio.NewWriter(&buf), m); err != nil {
			if _, known := msgTypeCode[m.Type]; known && err != errFrameTooLarge {
				t.Fatalf("binary encode of known type %q failed: %v", m.Type, err)
			}
			return // unknown type or past the cap: refused, nothing written
		}
		m2, err := ReadMessage(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("binary decode of encoded frame failed: %v", err)
		}
		want, got := oracleJSON(t, m), oracleJSON(t, m2)
		if !bytes.Equal(want, got) {
			t.Fatalf("binary round trip changed the message:\n in: %s\nout: %s", want, got)
		}
	})
}

// oracleJSON renders m in the JSON form the differential compares on.
// The binary layout does not distinguish an empty vector from an absent
// one (both decode to nil), so empty vectors are normalized first.
func oracleJSON(t *testing.T, m Message) []byte {
	t.Helper()
	norm := func(r *Record) {
		if len(r.Vector) == 0 {
			r.Vector = nil
		}
	}
	if m.Record != nil {
		rec := *m.Record
		norm(&rec)
		m.Record = &rec
	}
	m.Records = append([]Record(nil), m.Records...)
	for i := range m.Records {
		norm(&m.Records[i])
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("oracle marshal: %v", err)
	}
	return b
}
