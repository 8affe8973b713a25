package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"gsso/internal/obs/span"
)

// CodecBinary is the wire format version, carried in the version byte
// of every frame header; every connection speaks it from its first
// frame. Versions 1 (JSON) and 2 (binary with an in-band codec
// advertisement) are retired: a frame carrying another version byte
// fails with "bad binary header" instead of mis-decoding.
const CodecBinary uint8 = 3

// connReadBufSize sizes the bufio readers of persistent connections.
// Binary frames that fit the buffer decode straight out of it
// (Peek/Discard, no copy), so the buffer is sized to hold a full
// 64-record publish batch with headroom.
const connReadBufSize = 64 << 10

// binMagic opens every frame. A reader peeking one byte rejects a
// stream that opens with anything else (a JSON client, a stray
// protocol) before buffering more of it.
const binMagic = 0xBF

// binHeaderLen is the fixed binary frame header:
//
//	offset size field
//	0      1    magic (0xBF)
//	1      1    codec version (CodecBinary)
//	2      1    message type code
//	3      1    flags (bit0 record, bit1 trace, bit3 membership)
//	4      4    payload length, uint32 LE (bytes after the header)
//	8      8    seq, uint64 LE
//
// The payload encodes the remaining fields in fixed order: number
// (uvarint), max (zigzag varint), addr (string), err (string), record
// (if flagged), records (uvarint count + records), errs (uvarint count
// + strings), trace (8+8+1 bytes, if flagged), membership (epoch
// uvarint + uvarint peer count + strings, if flagged). Strings are
// uvarint length + raw bytes; records are addr, number (uvarint),
// expires (int64 LE), vector (uvarint count + float64 LE each).
const binHeaderLen = 16

// Binary header flags: presence bits for the pointer-typed fields,
// where nil versus zero-valued matters. binFlagMembership covers the
// Peers/Epoch pair carried by peers-reply frames. Bit 2 stays unassigned
// for the reason codes 7 and 8 do (see msgTypeCode): it marked the
// snapshot those frames carried.
const (
	binFlagRecord     = 1 << 0
	binFlagTrace      = 1 << 1
	binFlagMembership = 1 << 3
)

// msgTypeCode maps message types to their binary type codes. A type
// missing here (only possible for hand-built messages) cannot be
// written: the encoder returns an error. Codes 7 and 8 belonged to a
// removed stats/stats-reply pair that a peer speaking the same codec
// version may still send; they stay unassigned, so such a frame fails
// as an unknown type instead of being misread.
var msgTypeCode = map[MsgType]byte{
	MsgPing:         1,
	MsgPong:         2,
	MsgStore:        3,
	MsgStored:       4,
	MsgQuery:        5,
	MsgRecords:      6,
	MsgRemove:       9,
	MsgRemoved:      10,
	MsgPublishBatch: 11,
	MsgBatchAck:     12,
	MsgError:        13,
	MsgPeers:        14,
	MsgPeersReply:   15,
}

// replyType pairs each request type a node serves with the one reply
// type that answers it. MsgError may answer anything; the transport
// rejects every other reply as a permanent error, so no caller checks a
// reply's type. Its request column is the set of per-type metric labels.
var replyType = map[MsgType]MsgType{
	MsgPing:         MsgPong,
	MsgStore:        MsgStored,
	MsgQuery:        MsgRecords,
	MsgRemove:       MsgRemoved,
	MsgPublishBatch: MsgBatchAck,
	MsgPeers:        MsgPeersReply,
}

// msgTypeByCode is the reverse mapping; index 0 and codes 7 and 8 stay
// empty.
var msgTypeByCode = [...]MsgType{
	1: MsgPing, 2: MsgPong, 3: MsgStore, 4: MsgStored, 5: MsgQuery,
	6: MsgRecords, 9: MsgRemove, 10: MsgRemoved, 11: MsgPublishBatch,
	12: MsgBatchAck, 13: MsgError, 14: MsgPeers, 15: MsgPeersReply,
}

// appendUvarint/appendString/appendF64 are the payload field writers.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendRecord(buf []byte, r *Record) []byte {
	buf = appendString(buf, r.Addr)
	buf = binary.AppendUvarint(buf, r.Number)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.ExpiresUnixMilli))
	buf = binary.AppendUvarint(buf, uint64(len(r.Vector)))
	for _, v := range r.Vector {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// appendMessageBinary appends m as one binary frame. A message of a
// type the layout has no code for is an error and leaves buf untouched.
func appendMessageBinary(buf []byte, m *Message) ([]byte, error) {
	code, ok := msgTypeCode[m.Type]
	if !ok {
		return buf, fmt.Errorf("wire: unencodable message type %q", m.Type)
	}
	var flags byte
	if m.Record != nil {
		flags |= binFlagRecord
	}
	if m.Trace != nil {
		flags |= binFlagTrace
	}
	if m.Epoch != 0 || len(m.Peers) > 0 {
		flags |= binFlagMembership
	}
	start := len(buf)
	buf = append(buf, binMagic, CodecBinary, code, flags)
	buf = append(buf, 0, 0, 0, 0) // payload length, patched below
	buf = binary.LittleEndian.AppendUint64(buf, m.Seq)

	buf = binary.AppendUvarint(buf, m.Number)
	buf = binary.AppendVarint(buf, int64(m.Max))
	buf = appendString(buf, m.Addr)
	buf = appendString(buf, m.Err)
	if m.Record != nil {
		buf = appendRecord(buf, m.Record)
	}
	buf = binary.AppendUvarint(buf, uint64(len(m.Records)))
	for i := range m.Records {
		buf = appendRecord(buf, &m.Records[i])
	}
	buf = binary.AppendUvarint(buf, uint64(len(m.Errs)))
	for _, e := range m.Errs {
		buf = appendString(buf, e)
	}
	if m.Trace != nil {
		buf = binary.LittleEndian.AppendUint64(buf, m.Trace.TraceID)
		buf = binary.LittleEndian.AppendUint64(buf, m.Trace.SpanID)
		var s byte
		if m.Trace.Sampled {
			s = 1
		}
		buf = append(buf, s)
	}
	if flags&binFlagMembership != 0 {
		buf = binary.AppendUvarint(buf, m.Epoch)
		buf = binary.AppendUvarint(buf, uint64(len(m.Peers)))
		for _, p := range m.Peers {
			buf = appendString(buf, p)
		}
	}
	binary.LittleEndian.PutUint32(buf[start+4:start+8], uint32(len(buf)-start-binHeaderLen))
	return buf, nil
}

// decodeState is the per-connection decode context: the frame scratch
// buffer, a bounded intern table that deduplicates record addresses (a
// refresh-heavy peer re-sends the same handful of addresses forever —
// steady state allocates no strings), and, for server-side loops that
// never retain a request past its response, a reusable records slice.
type decodeState struct {
	scratch []byte
	intern  map[string]string
	// reuseRecords lets decode hand back the same []Record backing
	// array frame after frame. Only the node's serve loop sets it: the
	// request is fully consumed before the next frame is read. Client
	// read loops leave it false — responses outlive the loop iteration.
	reuseRecords bool
	recs         []Record
}

// internCap bounds the intern table against peers that spray unique
// addresses; past the cap, strings are allocated but not cached.
const internCap = 4096

func (st *decodeState) internString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := st.intern[string(b)]; ok { // no alloc: compiler-optimized lookup
		return s
	}
	s := string(b)
	if len(st.intern) < internCap {
		if st.intern == nil {
			st.intern = make(map[string]string)
		}
		st.intern[s] = s
	}
	return s
}

// binReader is a bounds-checked cursor over one binary payload.
type binReader struct {
	b   []byte
	off int
	err error
}

func (r *binReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: binary frame: truncated %s", what)
	}
}

func (r *binReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) varint(what string) int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) bytes(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
		r.fail(what)
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

func (r *binReader) u64(what string) uint64 {
	b := r.bytes(8, what)
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *binReader) stringField(what string) string {
	n := r.uvarint(what)
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail(what)
		return ""
	}
	return string(r.bytes(int(n), what))
}

// internedString is stringField through the connection's intern table:
// addresses repeat endlessly on refresh traffic, so steady state
// allocates no string at all.
func (r *binReader) internedString(st *decodeState, what string) string {
	n := r.uvarint(what)
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail(what)
		return ""
	}
	return st.internString(r.bytes(int(n), what))
}

// remaining reports the unread payload bytes, used to validate counts
// before allocating.
func (r *binReader) remaining() int { return len(r.b) - r.off }

func (r *binReader) record(rec *Record, st *decodeState) {
	rec.Addr = r.internedString(st, "record addr")
	rec.Number = r.uvarint("record number")
	rec.ExpiresUnixMilli = int64(r.u64("record expires"))
	vn := r.uvarint("record vector count")
	if r.err != nil {
		return
	}
	if vn > uint64(r.remaining())/8 {
		r.fail("record vector")
		return
	}
	if vn > 0 {
		// The vector backing is always fresh: stored records keep it.
		rec.Vector = make([]float64, vn)
		for i := range rec.Vector {
			rec.Vector[i] = math.Float64frombits(r.u64("record vector"))
		}
	} else {
		rec.Vector = nil
	}
}

// minBinRecordLen is the smallest encodable record (empty addr, zero
// number, expires, empty vector) — used to bound count fields.
const minBinRecordLen = 1 + 1 + 8 + 1

// decodeMessageBinary parses one whole binary frame (header included).
// Everything referenced by the returned Message is copied out of frame,
// so callers may reuse or discard the buffer immediately.
func decodeMessageBinary(frame []byte, st *decodeState) (Message, error) {
	if len(frame) < binHeaderLen {
		return Message{}, fmt.Errorf("wire: binary frame shorter than header")
	}
	if frame[0] != binMagic || frame[1] != CodecBinary {
		return Message{}, fmt.Errorf("wire: bad binary header %x/%x", frame[0], frame[1])
	}
	code, flags := frame[2], frame[3]
	if int(code) >= len(msgTypeByCode) || msgTypeByCode[code] == "" {
		return Message{}, fmt.Errorf("wire: unknown binary message type %d", code)
	}
	var m Message
	m.Type = msgTypeByCode[code]
	m.Seq = binary.LittleEndian.Uint64(frame[8:16])
	r := &binReader{b: frame[binHeaderLen:]}

	m.Number = r.uvarint("number")
	m.Max = int(r.varint("max"))
	m.Addr = r.internedString(st, "addr")
	m.Err = r.stringField("err")
	if flags&binFlagRecord != 0 {
		m.Record = &Record{}
		r.record(m.Record, st)
	}
	nrec := r.uvarint("records count")
	if r.err == nil && nrec > uint64(r.remaining()/minBinRecordLen)+1 {
		r.fail("records count")
	}
	if r.err == nil && nrec > 0 {
		if st.reuseRecords && uint64(cap(st.recs)) >= nrec {
			m.Records = st.recs[:nrec]
		} else {
			m.Records = make([]Record, nrec)
			if st.reuseRecords {
				st.recs = m.Records
			}
		}
		for i := range m.Records {
			m.Records[i] = Record{}
			r.record(&m.Records[i], st)
		}
	}
	nerr := r.uvarint("errs count")
	if r.err == nil && nerr > uint64(r.remaining())+1 {
		r.fail("errs count")
	}
	if r.err == nil && nerr > 0 {
		m.Errs = make([]string, nerr)
		for i := range m.Errs {
			m.Errs[i] = r.stringField("errs")
		}
	}
	if r.err == nil && flags&binFlagTrace != 0 {
		var tc span.Context
		tc.TraceID = r.u64("trace id")
		tc.SpanID = r.u64("trace span")
		sb := r.bytes(1, "trace sampled")
		if r.err == nil {
			tc.Sampled = sb[0] != 0
			m.Trace = &tc
		}
	}
	if r.err == nil && flags&binFlagMembership != 0 {
		m.Epoch = r.uvarint("epoch")
		np := r.uvarint("peers count")
		if r.err == nil && np > uint64(r.remaining())+1 {
			r.fail("peers count")
		}
		if r.err == nil && np > 0 {
			m.Peers = make([]string, np)
			for i := range m.Peers {
				m.Peers[i] = r.internedString(st, "peers")
			}
		}
	}
	if r.err != nil {
		return Message{}, r.err
	}
	if r.remaining() != 0 {
		return Message{}, fmt.Errorf("wire: binary frame carries %d trailing bytes", r.remaining())
	}
	return m, nil
}

// readMessageBinary reads one length-prefixed binary frame. Frames that
// fit the reader's buffer are parsed straight out of it (Peek/Discard,
// zero copies); larger ones fall back to the scratch buffer. The
// payload-length cap is checked before anything is buffered.
func readMessageBinary(r *bufio.Reader, st *decodeState) (Message, error) {
	hdr, err := r.Peek(binHeaderLen)
	if err != nil {
		return Message{}, fmt.Errorf("wire: short binary header: %w", err)
	}
	plen := int(binary.LittleEndian.Uint32(hdr[4:8]))
	if plen > maxFrame {
		return Message{}, errFrameTooLarge
	}
	total := binHeaderLen + plen
	if total <= r.Size() {
		frame, err := r.Peek(total)
		if err != nil {
			return Message{}, err
		}
		m, derr := decodeMessageBinary(frame, st)
		if _, err := r.Discard(total); err != nil {
			return Message{}, err
		}
		return m, derr
	}
	if cap(st.scratch) < total {
		st.scratch = make([]byte, total)
	}
	frame := st.scratch[:total]
	if _, err := io.ReadFull(r, frame); err != nil {
		return Message{}, fmt.Errorf("wire: short binary frame: %w", err)
	}
	return decodeMessageBinary(frame, st)
}
