package wire

import (
	"bufio"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gsso/internal/obs/span"
)

// wrongReplyServer is a peer that speaks the framing but pairs replies
// wrong: it answers every frame with MsgStored under the request's Seq.
// It counts the frames it reads.
func wrongReplyServer(t *testing.T) (string, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	var frames atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				br, bw := bufio.NewReader(c), bufio.NewWriter(c)
				for {
					req, err := ReadMessage(br)
					if err != nil {
						return
					}
					frames.Add(1)
					if writeMessage(bw, Message{Type: MsgStored, Seq: req.Seq}) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), &frames
}

// TestRoundTripRejectsWrongReply pins the transport's reply check: a
// reply that replyType does not pair with the request is a permanent
// error, returned alongside the reply, as MsgError is.
func TestRoundTripRejectsWrongReply(t *testing.T) {
	addr, _ := wrongReplyServer(t)
	tr := NewTransport(1)
	defer tr.Close()
	resp, err := tr.RoundTrip(addr, Message{Type: MsgPing}, testTimeout)
	if err == nil || !isPermanent(err) {
		t.Fatalf("ping answered by %q: err = %v, want a permanent error", resp.Type, err)
	}
	if resp.Type != MsgStored {
		t.Fatalf("reply not returned alongside the error: %+v", resp)
	}
	if _, err := tr.RoundTrip(addr, Message{Type: MsgStore, Record: &Record{Addr: "a:1"}}, testTimeout); err != nil {
		t.Fatalf("store answered by stored: %v", err)
	}
}

// TestNodeRPCWrongReplyNotRetried: through the node's one rpc path, a
// wrong reply to any request type costs exactly one attempt — no retry,
// nothing in wire_retries_total.
func TestNodeRPCWrongReplyNotRetried(t *testing.T) {
	addr, frames := wrongReplyServer(t)
	n := startNode(t, stubCfg(), nil)
	n.opt.breakerThreshold = 1 << 20 // keep every call reaching the peer
	for req := range replyType {
		if req == MsgStore {
			continue // the one type MsgStored rightly answers
		}
		before := frames.Load()
		if _, _, err := n.rpc(span.Context{}, addr, Message{Type: req}, testTimeout); err == nil {
			t.Fatalf("%s answered by stored: no error", req)
		}
		if got := frames.Load() - before; got != 1 {
			t.Fatalf("%s: peer saw %d attempts, want 1", req, got)
		}
		if v, _ := n.Registry().Snapshot().Value("wire_retries_total", string(req)); v != 0 {
			t.Fatalf("wire_retries_total{%s} = %v, want 0", req, v)
		}
	}
}

// TestWideCurveRejected: a curve wider than a 64-bit landmark number
// (3 dims × 30 bits) fails NewNode, instead of starting a node whose
// every Publish fails.
func TestWideCurveRejected(t *testing.T) {
	cfg := SpaceConfig{Landmarks: []string{"a", "b", "c"}, IndexDims: 3, BitsPerDim: 30, MaxRTTMs: 100}
	if n, err := NewNode("127.0.0.1:0", cfg, nil, time.Minute); err == nil || !strings.Contains(err.Error(), "exceeds 64") {
		if n != nil {
			_ = n.Close()
		}
		t.Fatalf("NewNode(3×30 bits) = %v, want the curve's width error", err)
	}
	cfg.IndexDims = 2 // 60 bits fit
	n, err := NewNode("127.0.0.1:0", cfg, nil, time.Minute)
	if err != nil {
		t.Fatalf("NewNode(2×30 bits): %v", err)
	}
	_ = n.Close()
}
