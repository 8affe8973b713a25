package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

// endlessReader serves prefix, then the byte b forever, counting the
// bytes handed out. A reader that buffers a frame before checking the
// frame cap never returns from it.
type endlessReader struct {
	prefix []byte
	b      byte
	served int64
}

func (e *endlessReader) Read(p []byte) (int, error) {
	n := copy(p, e.prefix)
	e.prefix = e.prefix[n:]
	for i := n; i < len(p); i++ {
		p[i] = e.b
	}
	e.served += int64(len(p))
	return len(p), nil
}

// binHeader builds a binary frame header claiming a payload of plen
// bytes.
func binHeader(code byte, plen uint32) []byte {
	hdr := make([]byte, binHeaderLen)
	hdr[0], hdr[1], hdr[2] = binMagic, CodecBinary, code
	binary.LittleEndian.PutUint32(hdr[4:8], plen)
	return hdr
}

// TestReadMessageBoundsOversizedFrame: a peer announcing a payload past
// the 1 MiB cap and then streaming bytes forever is rejected from the
// header alone, having consumed no more than the one buffer fill that
// read the header — the payload is never buffered.
func TestReadMessageBoundsOversizedFrame(t *testing.T) {
	src := &endlessReader{prefix: binHeader(1, maxFrame+1), b: 'a'}
	r := bufio.NewReader(src)
	_, err := ReadMessage(r)
	if !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("ReadMessage on an endless oversized frame = %v, want frame-limit error", err)
	}
	if src.served > int64(r.Size()) {
		t.Fatalf("reader consumed %d bytes before rejecting, want <= %d", src.served, r.Size())
	}
}

// TestReadMessageOversizedTerminatedFrame pins the cap for frames that
// arrive complete but exceed the limit by one byte, on both sides: the
// reader rejects the frame and the writer refuses to send it.
func TestReadMessageOversizedTerminatedFrame(t *testing.T) {
	frame := append(binHeader(1, maxFrame+1), make([]byte, maxFrame+1)...)
	_, err := ReadMessage(bufio.NewReader(bytes.NewReader(frame)))
	if !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("oversized complete frame = %v, want frame-limit error", err)
	}
	var buf bytes.Buffer
	big := Message{Type: MsgError, Seq: 1, Err: strings.Repeat("x", maxFrame)}
	if err := writeMessage(bufio.NewWriter(&buf), big); !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("writing an oversized frame = %v, want frame-limit error", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("refused frame still wrote %d bytes", buf.Len())
	}
}

// TestReadMessageFrameAtLimit: a frame whose payload is exactly the cap
// is written and parses (the bound is on the frame, not a smaller
// internal buffer).
func TestReadMessageFrameAtLimit(t *testing.T) {
	// A ping payload is number, max, addr length, err length (3 bytes
	// at this size), err, records count, errs count: 8 bytes + err.
	in := Message{Type: MsgPing, Seq: 1, Err: strings.Repeat("a", maxFrame-8)}
	var buf bytes.Buffer
	if err := writeMessage(bufio.NewWriter(&buf), in); err != nil {
		t.Fatalf("frame at the limit refused: %v", err)
	}
	if plen := buf.Len() - binHeaderLen; plen != maxFrame {
		t.Fatalf("payload is %d bytes, want exactly %d", plen, maxFrame)
	}
	m, err := ReadMessage(bufio.NewReader(&buf))
	if err != nil {
		t.Fatalf("frame at the limit rejected: %v", err)
	}
	if m.Type != MsgPing || m.Seq != 1 || m.Err != in.Err {
		t.Fatalf("frame at the limit mangled: type %q seq %d err len %d", m.Type, m.Seq, len(m.Err))
	}
}

// TestBatchMessageRoundTrip covers the new batch frames through the
// codec, per-record errors included.
func TestBatchMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	in := Message{
		Type: MsgPublishBatch,
		Seq:  9,
		Records: []Record{
			{Addr: "a:1", Vector: []float64{1, 2}, Number: 7, ExpiresUnixMilli: 99},
			{Addr: "b:2", Number: 8},
		},
	}
	if err := writeMessage(w, in); err != nil {
		t.Fatal(err)
	}
	ack := Message{Type: MsgBatchAck, Seq: 9, Errs: []string{"", "store without addr"}}
	if err := writeMessage(w, ack); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(&buf)
	out, err := ReadMessage(r)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != MsgPublishBatch || len(out.Records) != 2 || out.Records[1].Addr != "b:2" {
		t.Fatalf("batch round trip = %+v", out)
	}
	out, err = ReadMessage(r)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != MsgBatchAck || len(out.Errs) != 2 || out.Errs[1] == "" {
		t.Fatalf("ack round trip = %+v", out)
	}
}
