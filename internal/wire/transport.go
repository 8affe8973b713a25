package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Transport is a persistent, multiplexed connection pool. It keeps up to
// size connections per peer and lets any number of concurrent requests
// share them: each request is stamped with a connection-unique Seq, the
// per-connection read loop matches responses back to waiters by that
// Seq, so callers never serialize behind each other's round trips.
//
// Failure handling composes with the resilience layer above it: any
// transport error (write failure, decode failure, request timeout)
// closes the connection and fails every request in flight on it, so a
// retry naturally reopens a fresh connection; Evict drops every pooled
// connection to a peer and is called when the peer's circuit breaker
// opens, so a crashed peer's stale connections are not retried forever.
//
// Trace propagation is frame-level: the transport stamps only Seq and
// never touches Message.Trace, so the caller's trace context rides every
// multiplexed frame unchanged and retried attempts re-send the same
// context (one client span per call, attempt-counted, not one per try).
type Transport struct {
	size int
	m    *transportMetrics

	mu     sync.Mutex
	peers  map[string]*peerPool
	closed bool
}

// peerPool is the per-peer connection set. dialing counts in-flight
// dials so concurrent callers do not overshoot the pool size, while the
// dial itself happens outside the lock (a blackholed peer must not
// stall calls to healthy ones).
type peerPool struct {
	mu      sync.Mutex
	cond    *sync.Cond // signals dial completion to callers waiting on an empty pool
	conns   []*pconn
	rr      int
	dialing int
}

// NewTransport creates a standalone pool keeping up to size connections
// per peer (minimum 1). Nodes build their own transport wired to their
// telemetry registry; a bare one is useful for clients and tests.
func NewTransport(size int) *Transport {
	return newTransport(size, nil)
}

func newTransport(size int, m *transportMetrics) *Transport {
	if size < 1 {
		size = 1
	}
	return &Transport{size: size, m: m, peers: make(map[string]*peerPool)}
}

// errTransportClosed fails calls through a closed transport.
var errTransportClosed = errors.New("wire: transport closed")

// RoundTrip sends req to addr on a pooled connection and returns the
// matching response. req.Seq is assigned by the transport; the caller's
// value is ignored. A remote MsgError, or any reply other than the one
// replyType pairs with the request, returns a permanent error alongside
// the response: retrying the identical request cannot help.
func (t *Transport) RoundTrip(addr string, req Message, timeout time.Duration) (Message, error) {
	resp, _, err := t.roundTripRTT(addr, req, timeout)
	return resp, err
}

// roundTripRTT is RoundTrip plus the request's wire round-trip time,
// measured from frame write to response arrival on the established
// connection — dial cost, when a dial was needed, is excluded. Node.rpc
// uses this, so landmark vectors keep reflecting true network RTT.
func (t *Transport) roundTripRTT(addr string, req Message, timeout time.Duration) (Message, time.Duration, error) {
	pc, err := t.get(addr, timeout)
	if err != nil {
		return Message{}, 0, err
	}
	return pc.do(req, timeout)
}

// get returns a pooled connection to addr, dialing a new one while the
// pool is below size.
func (t *Transport) get(addr string, timeout time.Duration) (*pconn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, errTransportClosed
	}
	pp := t.peers[addr]
	if pp == nil {
		pp = &peerPool{}
		pp.cond = sync.NewCond(&pp.mu)
		t.peers[addr] = pp
	}
	t.mu.Unlock()

	pp.mu.Lock()
	for {
		if len(pp.conns) > 0 && len(pp.conns)+pp.dialing >= t.size {
			pc := pp.conns[pp.rr%len(pp.conns)]
			pp.rr++
			pp.mu.Unlock()
			t.m.reuse()
			return pc, nil
		}
		if len(pp.conns)+pp.dialing < t.size {
			break
		}
		// Pool empty and every slot is mid-dial: wait for one to land
		// rather than overshoot the pool size.
		pp.cond.Wait()
	}
	pp.dialing++
	pp.mu.Unlock()

	c, err := net.DialTimeout("tcp", addr, timeout)
	pp.mu.Lock()
	pp.dialing--
	pp.cond.Broadcast()
	if err != nil {
		pp.mu.Unlock()
		return nil, err
	}
	pc := &pconn{
		t:       t,
		addr:    addr,
		c:       c,
		bw:      bufio.NewWriter(c),
		waiters: make(map[uint64]chan Message),
	}
	pp.conns = append(pp.conns, pc)
	pp.mu.Unlock()
	t.m.dialed()
	go pc.readLoop()

	t.mu.Lock()
	closed := t.closed
	t.mu.Unlock()
	if closed {
		pc.fail(errTransportClosed)
		return nil, errTransportClosed
	}
	return pc, nil
}

// drop removes a failed connection from its peer's pool.
func (t *Transport) drop(pc *pconn) {
	t.mu.Lock()
	pp := t.peers[pc.addr]
	t.mu.Unlock()
	if pp == nil {
		return
	}
	pp.mu.Lock()
	for i, c := range pp.conns {
		if c == pc {
			pp.conns = append(pp.conns[:i], pp.conns[i+1:]...)
			t.m.dropped()
			break
		}
	}
	pp.mu.Unlock()
}

// Evict closes every pooled connection to addr. The node calls it when
// the peer's circuit breaker opens: a crashed peer's stale connections
// must be torn down, not handed to the half-open probe. The connections
// leave the pool before Evict returns, also those a read error is
// already failing: that fail may not have reached its drop yet.
func (t *Transport) Evict(addr string) {
	t.mu.Lock()
	pp := t.peers[addr]
	t.mu.Unlock()
	if pp == nil {
		return
	}
	pp.mu.Lock()
	conns := pp.conns
	pp.conns = nil
	for range conns {
		t.m.dropped()
	}
	pp.mu.Unlock()
	for _, pc := range conns {
		pc.fail(fmt.Errorf("wire: connection to %s evicted", addr))
	}
}

// Open reports how many pooled connections to addr are currently open.
func (t *Transport) Open(addr string) int {
	t.mu.Lock()
	pp := t.peers[addr]
	t.mu.Unlock()
	if pp == nil {
		return 0
	}
	pp.mu.Lock()
	defer pp.mu.Unlock()
	return len(pp.conns)
}

// Close evicts every peer and fails all future calls.
func (t *Transport) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	addrs := make([]string, 0, len(t.peers))
	for addr := range t.peers {
		addrs = append(addrs, addr)
	}
	t.mu.Unlock()
	for _, addr := range addrs {
		t.Evict(addr)
	}
}

// pconn is one pooled connection: a single read loop dispatches
// responses to waiters by Seq; writers serialize on wmu only for the
// frame write itself.
type pconn struct {
	t    *Transport
	addr string
	c    net.Conn
	bw   *bufio.Writer

	wmu sync.Mutex // serializes frame writes

	mu      sync.Mutex
	waiters map[uint64]chan Message
	seq     uint64
	closed  bool
	err     error
}

// readLoop owns the connection's read side: it decodes frames (reusing
// one scratch buffer) and delivers each to the waiter registered under
// its Seq. Responses with no waiter — a request that already timed out —
// are dropped. Any read error fails the connection and every request
// still in flight on it.
func (p *pconn) readLoop() {
	br := bufio.NewReaderSize(p.c, connReadBufSize)
	// Responses outlive the loop iteration (they are handed to waiters),
	// so the decode state must not reuse record slices here.
	st := &decodeState{}
	for {
		m, err := readMessageInto(br, st)
		if err != nil {
			p.fail(fmt.Errorf("wire: connection to %s lost: %w", p.addr, err))
			return
		}
		p.mu.Lock()
		ch := p.waiters[m.Seq]
		delete(p.waiters, m.Seq)
		p.mu.Unlock()
		if ch != nil {
			ch <- m
		}
	}
}

// do sends one request and waits for its response. The returned duration
// covers write to response arrival: the wire round trip on an
// established connection.
func (p *pconn) do(req Message, timeout time.Duration) (Message, time.Duration, error) {
	p.mu.Lock()
	if p.closed {
		err := p.err
		p.mu.Unlock()
		return Message{}, 0, err
	}
	p.seq++
	req.Seq = p.seq
	ch := make(chan Message, 1)
	p.waiters[req.Seq] = ch
	p.mu.Unlock()

	start := time.Now()
	p.wmu.Lock()
	_ = p.c.SetWriteDeadline(time.Now().Add(timeout))
	err := writeMessage(p.bw, req)
	p.wmu.Unlock()
	if err != nil {
		p.forget(req.Seq)
		p.fail(fmt.Errorf("wire: write to %s: %w", p.addr, err))
		return Message{}, 0, err
	}

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case resp, ok := <-ch:
		if !ok {
			p.mu.Lock()
			err := p.err
			p.mu.Unlock()
			return Message{}, 0, err
		}
		rtt := time.Since(start)
		if resp.Type == MsgError {
			return resp, rtt, permanent(fmt.Errorf("wire: remote error: %s", resp.Err))
		}
		if resp.Seq != req.Seq {
			return resp, rtt, permanent(fmt.Errorf("wire: response seq %d for request %d", resp.Seq, req.Seq))
		}
		if resp.Type != replyType[req.Type] {
			return resp, rtt, permanent(fmt.Errorf("wire: unexpected response %q to %s", resp.Type, req.Type))
		}
		return resp, rtt, nil
	case <-timer.C:
		p.forget(req.Seq)
		// A peer that is not answering cannot keep its connection: close
		// it so the pool redials instead of queueing onto a black hole.
		p.fail(fmt.Errorf("wire: %s: request timed out after %v", p.addr, timeout))
		return Message{}, 0, fmt.Errorf("wire: %s: request timed out after %v", p.addr, timeout)
	}
}

// forget unregisters a waiter that gave up.
func (p *pconn) forget(seq uint64) {
	p.mu.Lock()
	delete(p.waiters, seq)
	p.mu.Unlock()
}

// fail closes the connection once, fails every in-flight request on it,
// and removes it from the pool.
func (p *pconn) fail(err error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.err = err
	waiters := p.waiters
	p.waiters = nil
	p.mu.Unlock()
	_ = p.c.Close()
	for _, ch := range waiters {
		close(ch)
	}
	p.t.drop(p)
}
