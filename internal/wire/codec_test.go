package wire

import (
	"bufio"
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"

	"gsso/internal/obs/span"
)

// codecMessages is a spread of frames covering every field the binary
// layout carries.
func codecMessages() []Message {
	return []Message{
		{Type: MsgPing, Seq: 1},
		{Type: MsgPong, Seq: 2},
		{Type: MsgStore, Seq: 3, Record: &Record{
			Addr: "10.0.0.1:9000", Vector: []float64{1.5, 2.25, 0}, Number: 1234, ExpiresUnixMilli: 99999,
		}},
		{Type: MsgQuery, Seq: 4, Number: 777, Max: 8},
		{Type: MsgQuery, Seq: 5, Number: 0, Max: -3},
		{Type: MsgRecords, Seq: 6, Records: []Record{
			{Addr: "a:1", Number: 1},
			{Addr: "b:2", Vector: []float64{0.5}, Number: 2, ExpiresUnixMilli: -7},
		}},
		{Type: MsgRemove, Seq: 7, Addr: "1.2.3.4:5"},
		{Type: MsgRemoved, Seq: 8, Addr: "1.2.3.4:5"},
		{Type: MsgBatchAck, Seq: 9, Errs: []string{"", "store without addr", ""}},
		{Type: MsgError, Seq: 10, Err: "boom"},
		{Type: MsgStore, Seq: 11, Trace: &span.Context{TraceID: 0xdeadbeef, SpanID: 42, Sampled: true},
			Record: &Record{Addr: "x:1"}},
		{Type: MsgPublishBatch, Seq: 12, Records: []Record{{Addr: "x:1", Number: 3}}},
	}
}

func TestBinaryCodecRoundTrip(t *testing.T) {
	for _, in := range codecMessages() {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := writeMessage(w, in); err != nil {
			t.Fatalf("write %v: %v", in.Type, err)
		}
		if buf.Bytes()[0] != binMagic {
			t.Fatalf("%v: frame not binary (first byte %#x)", in.Type, buf.Bytes()[0])
		}
		out, err := ReadMessage(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("read %v: %v", in.Type, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip mangled %v:\n in: %+v\nout: %+v", in.Type, in, out)
		}
	}
}

// TestBinaryCodecMixedFrames writes every message type back to back on
// one stream: the reader must frame each one independently through one
// shared decode state (scratch buffer, intern table).
func TestBinaryCodecMixedFrames(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	msgs := codecMessages()
	for _, m := range msgs {
		if err := writeMessage(w, m); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&buf)
	var st decodeState
	for i, want := range msgs {
		got, err := readMessageInto(r, &st)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d = %+v, want %+v", i, got, want)
		}
	}
	if _, err := readMessageInto(r, &st); err != io.EOF {
		t.Fatalf("read past the last frame: err = %v, want EOF", err)
	}
}

// TestBinaryCodecTruncation feeds every prefix of a valid binary frame:
// each must error, never panic or misparse.
func TestBinaryCodecTruncation(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeMessage(w, codecMessages()[2]); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for i := 0; i < len(full); i++ {
		if _, err := ReadMessage(bufio.NewReader(bytes.NewReader(full[:i]))); err == nil {
			t.Fatalf("prefix of %d/%d bytes parsed without error", i, len(full))
		}
	}
}

// TestBinaryCodecOversizedFrame checks the payload cap fires before the
// body is buffered.
func TestBinaryCodecOversizedFrame(t *testing.T) {
	frame := make([]byte, binHeaderLen)
	frame[0] = binMagic
	frame[1] = CodecBinary
	frame[2] = 1 // ping
	frame[4] = 0xff
	frame[5] = 0xff
	frame[6] = 0xff
	frame[7] = 0x7f // payload length far above maxFrame
	if _, err := ReadMessage(bufio.NewReader(bytes.NewReader(frame))); err != errFrameTooLarge {
		t.Fatalf("oversized frame: err = %v, want errFrameTooLarge", err)
	}
}

// TestReadMessageRejectsNonBinaryStream: a stream that does not open
// with the frame magic (here a JSON client's '{' forever) is rejected
// from a one-byte peek — the reader buffers nothing past the fill that
// peek triggers, however long the stream runs.
func TestReadMessageRejectsNonBinaryStream(t *testing.T) {
	src := &endlessReader{b: '{'}
	r := bufio.NewReader(src)
	if _, err := ReadMessage(r); err == nil || !strings.Contains(err.Error(), "bad frame magic") {
		t.Fatalf("JSON stream: err = %v, want bad frame magic", err)
	}
	if src.served > int64(r.Size()) {
		t.Fatalf("reader consumed %d bytes before rejecting, want <= one %d-byte fill", src.served, r.Size())
	}
}

// TestReadMessageRejectsStaleVersion: a frame carrying an older version
// byte (2, the binary layout with the codec advertisement) fails on its
// header instead of mis-decoding its payload, and so does a frame
// carrying a retired type code (7 and 8, the removed stats/stats-reply
// pair) or one that never existed.
func TestReadMessageRejectsStaleVersion(t *testing.T) {
	pong := func() []byte {
		var buf bytes.Buffer
		if err := writeMessage(bufio.NewWriter(&buf), Message{Type: MsgPong, Seq: 2}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, version := range []byte{2, CodecBinary + 1} {
		frame := pong()
		frame[1] = version
		_, err := ReadMessage(bufio.NewReader(bytes.NewReader(frame)))
		if err == nil || !strings.Contains(err.Error(), "bad binary header") {
			t.Fatalf("version %d frame: err = %v, want bad binary header", version, err)
		}
	}
	for _, code := range []byte{0, 7, 8, 0xee} {
		frame := pong()
		frame[2] = code
		_, err := ReadMessage(bufio.NewReader(bytes.NewReader(frame)))
		if err == nil || !strings.Contains(err.Error(), "unknown binary message type") {
			t.Fatalf("type code %d frame: err = %v, want unknown binary message type", code, err)
		}
	}
}

// TestWriteMessageCodecRejects: the writer speaks CodecBinary only, and
// a message the binary layout cannot carry is an error, not a silent
// fallback. Either way nothing reaches the writer.
func TestWriteMessageCodecRejects(t *testing.T) {
	cases := []struct {
		name  string
		m     Message
		codec uint8
	}{
		{"codec 0", Message{Type: MsgPing, Seq: 1}, 0},
		{"codec 1 (json)", Message{Type: MsgPing, Seq: 1}, 1},
		{"codec 2 (stale binary)", Message{Type: MsgPing, Seq: 1}, 2},
		{"codec 4", Message{Type: MsgPing, Seq: 1}, CodecBinary + 1},
		{"unknown type", Message{Type: "bogus", Seq: 1}, CodecBinary},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := WriteMessageCodec(w, c.m, c.codec); err == nil {
			t.Fatalf("%s: WriteMessageCodec accepted", c.name)
		}
		if w.Buffered() != 0 || buf.Len() != 0 {
			t.Fatalf("%s: rejected write left %d buffered, %d written", c.name, w.Buffered(), buf.Len())
		}
	}
	var buf bytes.Buffer
	if err := WriteMessageCodec(bufio.NewWriter(&buf), Message{Type: MsgPing, Seq: 1}, CodecBinary); err != nil {
		t.Fatalf("CodecBinary: %v", err)
	}
	if buf.Len() == 0 || buf.Bytes()[0] != binMagic || buf.Bytes()[1] != CodecBinary {
		t.Fatalf("CodecBinary frame header = % x", buf.Bytes())
	}
}
