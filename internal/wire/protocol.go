// Package wire runs the paper's proximity subsystem over a real network:
// nodes measure RTTs to landmark nodes with TCP pings, reduce the vector
// to a landmark number through the same Hilbert machinery as the
// simulator, publish soft-state records (address, vector, number, TTL)
// onto peer nodes keyed by landmark number, and answer nearest-peer
// queries by returning the records closest to a caller's number.
//
// The full overlay protocol (eCAN zones, routing) is exercised by the
// simulator; wire demonstrates that the proximity-generation and
// soft-state code paths are not simulator-only. Placement uses a one-hop
// ring over a static peer list — the degenerate Chord of the appendix.
// The owner's rules (placement, the record store, the reply to each
// request) are socket-free, in owner.go; Node is their I/O shell.
//
// Framing is a compact length-prefixed binary layout over TCP (see
// codec.go). Connections are persistent and multiplexed: many requests
// may be in flight on one connection at once, and responses are matched
// back to callers by Seq (see Transport). Every client call, a node's or
// a standalone tool's, goes through a Transport.
package wire

import (
	"bufio"
	"fmt"
	"sync"
	"time"

	"gsso/internal/obs/span"
)

// MsgType enumerates protocol messages.
type MsgType string

// Protocol messages.
const (
	MsgPing    MsgType = "ping"
	MsgPong    MsgType = "pong"
	MsgStore   MsgType = "store"
	MsgStored  MsgType = "stored"
	MsgQuery   MsgType = "query"
	MsgRecords MsgType = "records"
	MsgRemove  MsgType = "remove"
	MsgRemoved MsgType = "removed"
	// MsgPublishBatch is a bulk store: many soft-state records in one
	// frame, for a tool that preloads an owner. A node publishes only its
	// own record and never sends one.
	MsgPublishBatch MsgType = "publish-batch"
	// MsgBatchAck answers a publish-batch. A fully stored batch has no
	// Errs; a partially failed one carries one entry per record (empty
	// string = stored) so the sender can account per record.
	MsgBatchAck MsgType = "batch-ack"
	// MsgPeers asks a node for its current peer ring; MsgPeersReply
	// carries the sorted peer list and the ring epoch it belongs to.
	// Operators and the e2e checker use it to learn the live membership
	// instead of trusting a boot-time spec.
	MsgPeers      MsgType = "peers"
	MsgPeersReply MsgType = "peers-reply"
	MsgError      MsgType = "error"
)

// Record is one soft-state entry: a peer's position in the landmark
// space.
type Record struct {
	// Addr is the peer's dialable address.
	Addr string `json:"addr"`
	// Vector is the peer's landmark vector (RTTs in ms, landmark order).
	Vector []float64 `json:"vector"`
	// Number is the peer's scalar landmark number.
	Number uint64 `json:"number"`
	// ExpiresUnixMilli is the soft-state deadline.
	ExpiresUnixMilli int64 `json:"expires_unix_milli"`
}

// Expired reports whether the record is past its deadline at now.
func (r Record) Expired(now time.Time) bool {
	return now.UnixMilli() > r.ExpiresUnixMilli
}

// Message is the single wire frame. It travels in the binary layout of
// codec.go; the json tags name its fields for tools and for the codec's
// differential fuzz oracle.
type Message struct {
	Type MsgType `json:"type"`
	// Seq echoes request sequence numbers into responses.
	Seq uint64 `json:"seq"`
	// Record rides on store requests.
	Record *Record `json:"record,omitempty"`
	// Number keys query requests.
	Number uint64 `json:"number,omitempty"`
	// Max bounds how many records a query wants back.
	Max int `json:"max,omitempty"`
	// Records ride on query responses and publish-batch requests.
	Records []Record `json:"records,omitempty"`
	// Errs ride on batch-ack responses to a partially failed batch: one
	// entry per request record, empty string = stored.
	Errs []string `json:"errs,omitempty"`
	// Addr keys remove requests (the record to withdraw) and echoes on
	// removed responses.
	Addr string `json:"addr,omitempty"`
	// Trace carries the distributed-tracing context on sampled requests:
	// the trace ID, the caller's span (which the server's span parents
	// to), and the head sampling bit. Absent on unsampled traffic, so
	// tracing-off frames carry no trace bytes at all.
	Trace *span.Context `json:"trace,omitempty"`
	// Peers rides on peers-reply responses: the serving node's current
	// peer ring, sorted. Together with Epoch it lets any client see the
	// membership a node is actually routing on.
	Peers []string `json:"peers,omitempty"`
	// Epoch rides on peers-reply responses: the ring epoch the Peers
	// list belongs to. It starts at 1 and increments on every applied
	// SetPeers, so differing epochs across a fleet expose membership
	// drift mid-reconfiguration.
	Epoch uint64 `json:"epoch,omitempty"`
	// Err describes failures on MsgError.
	Err string `json:"err,omitempty"`
}

// maxFrame bounds one wire frame; larger frames are rejected to bound
// memory against misbehaving peers.
const maxFrame = 1 << 20

// errFrameTooLarge rejects frames that exceed maxFrame. The check fires
// while reading, before the oversized tail is buffered.
var errFrameTooLarge = fmt.Errorf("wire: frame exceeds %d-byte limit", maxFrame)

// encoderPool recycles frame scratch buffers, so the per-frame encode
// allocation is paid once per pooled buffer, not once per message.
var encoderPool = sync.Pool{New: func() any { return new([]byte) }}

// WriteMessageCodec frames and sends one message. codec must be
// CodecBinary, the only version this package speaks; it stays explicit
// so callers name the format they put on the wire. Any other codec, a
// message the binary layout cannot carry, or a frame past the size cap
// is an error and writes nothing.
func WriteMessageCodec(w *bufio.Writer, m Message, codec uint8) error {
	if codec != CodecBinary {
		return fmt.Errorf("wire: unsupported codec version %d", codec)
	}
	return writeMessage(w, m)
}

// writeMessage frames and sends one binary message.
func writeMessage(w *bufio.Writer, m Message) error {
	bp := encoderPool.Get().(*[]byte)
	defer encoderPool.Put(bp)
	buf, err := appendMessageBinary((*bp)[:0], &m)
	if err != nil {
		return err
	}
	*bp = buf[:0]
	if len(buf)-binHeaderLen > maxFrame {
		return errFrameTooLarge
	}
	if _, err := w.Write(buf); err != nil {
		return err
	}
	return w.Flush()
}

// ReadMessage reads one binary frame. A stream whose first byte is not
// the frame magic is rejected after a one-byte peek, and frames above
// 1 MiB are rejected from their header, before the payload is buffered.
func ReadMessage(r *bufio.Reader) (Message, error) {
	var st decodeState
	return readMessageInto(r, &st)
}

// readMessageInto is ReadMessage with an explicit per-connection decode
// state (scratch buffer, intern table), reused across frames by the
// persistent-connection read loops.
func readMessageInto(r *bufio.Reader, st *decodeState) (Message, error) {
	first, err := r.Peek(1)
	if err != nil {
		return Message{}, err
	}
	if first[0] != binMagic {
		return Message{}, fmt.Errorf("wire: bad frame magic %#x", first[0])
	}
	return readMessageBinary(r, st)
}
