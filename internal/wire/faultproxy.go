package wire

import (
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// PartitionMode selects how a partition severs the link a FaultProxy
// interposes. The proxy carries one direction of connection initiation
// (clients dialing the backend through it), but an established
// connection carries bytes both ways — so a partition can sever the
// whole link or just one data direction, which is what real asymmetric
// failures (unidirectional fiber cuts, one-way firewall drops) look
// like.
type PartitionMode int

const (
	// PartitionOff injects nothing; the link is whole.
	PartitionOff PartitionMode = iota
	// PartitionBoth severs the link completely: new connections are
	// closed at accept (the client sees a reset/EOF immediately).
	PartitionBoth
	// PartitionToBackend swallows bytes flowing client→backend while
	// letting backend→client flow: requests silently never arrive, so
	// the client hangs until its own deadline fires. One half of a
	// split-brain — the backend can still reach out through other links.
	PartitionToBackend
	// PartitionFromBackend forwards requests but swallows the responses:
	// the backend does the work, the client never hears back and times
	// out. The other half of an asymmetric cut.
	PartitionFromBackend
)

// String names the mode for logs and fault-schedule files.
func (m PartitionMode) String() string {
	switch m {
	case PartitionOff:
		return "off"
	case PartitionBoth:
		return "both"
	case PartitionToBackend:
		return "to-backend"
	case PartitionFromBackend:
		return "from-backend"
	default:
		return "unknown"
	}
}

// FaultProxy is a TCP fault injector for integration tests against real
// nodes: it listens on an ephemeral port and forwards connections to a
// backend address, but — per its current knobs — drops connections at
// accept (connection loss), black-holes them (accepted, never answered,
// the client's deadline fires), delays them before forwarding (slow
// link), or partitions the link symmetrically or one-way (split-brain).
// Decisions draw from a seeded PCG stream, so a fixed seed and a fixed
// connection order replay the same fault trace.
//
// Point a cluster's peer (or landmark) list at proxy addresses to put
// every Store/Query/Ping of the real stack through the injector.
type FaultProxy struct {
	backend string
	ln      net.Listener
	stop    chan struct{}
	wg      sync.WaitGroup

	mu        sync.Mutex
	rng       *rand.Rand
	loss      float64
	delay     time.Duration
	blackhole bool
	partition PartitionMode
	closed    bool
	// established tracks the live pipe endpoints (client and backend
	// conns both) so an engaged partition can kill them mid-flight.
	established map[net.Conn]struct{}

	dropped     atomic.Int64
	blackholed  atomic.Int64
	forwarded   atomic.Int64
	partitioned atomic.Int64
	killed      atomic.Int64
}

// NewFaultProxy starts a proxy in front of backend, listening on an
// ephemeral localhost port, injecting nothing until knobs are set.
func NewFaultProxy(backend string, seed uint64) (*FaultProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &FaultProxy{
		backend:     backend,
		ln:          ln,
		stop:        make(chan struct{}),
		rng:         rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
		established: make(map[net.Conn]struct{}),
	}
	p.wg.Add(1)
	go p.serve()
	return p, nil
}

// Addr returns the proxy's dialable address.
func (p *FaultProxy) Addr() string { return p.ln.Addr().String() }

// SetLoss drops each incoming connection independently with probability
// rate (the client sees a reset/EOF, the retry layer's bread and butter).
func (p *FaultProxy) SetLoss(rate float64) {
	p.mu.Lock()
	p.loss = rate
	p.mu.Unlock()
}

// SetDelay holds each forwarded connection for d from the client's first
// bytes before dialing the backend and forwarding them, modeling a
// degraded link: the client's first round trip on the connection takes
// at least d longer.
func (p *FaultProxy) SetDelay(d time.Duration) {
	p.mu.Lock()
	p.delay = d
	p.mu.Unlock()
}

// SetBlackhole accepts connections but never forwards or answers them;
// clients hang until their own deadline fires — the failure mode that
// distinguishes a timeout from a refused dial.
func (p *FaultProxy) SetBlackhole(on bool) {
	p.mu.Lock()
	p.blackhole = on
	p.mu.Unlock()
}

// SetPartition engages (or lifts, with PartitionOff) a partition on the
// link. The mode governs connections accepted from now on; when
// killEstablished is set and the mode is not PartitionOff, every
// connection currently piped through the proxy is closed too — a real
// cut severs in-flight conversations, it does not wait for them to
// finish. Multiplexed transports feel that as every in-flight request
// failing at once, exactly the blast radius the retry/breaker stack has
// to absorb.
func (p *FaultProxy) SetPartition(mode PartitionMode, killEstablished bool) {
	p.mu.Lock()
	p.partition = mode
	var victims []net.Conn
	if mode != PartitionOff && killEstablished {
		for c := range p.established {
			victims = append(victims, c)
		}
	}
	p.mu.Unlock()
	for _, c := range victims {
		_ = c.Close()
		p.killed.Add(1)
	}
}

// Partition returns the mode currently in force.
func (p *FaultProxy) Partition() PartitionMode {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.partition
}

// Dropped returns how many connections were dropped at accept.
func (p *FaultProxy) Dropped() int64 { return p.dropped.Load() }

// Blackholed returns how many connections were black-holed.
func (p *FaultProxy) Blackholed() int64 { return p.blackholed.Load() }

// Forwarded returns how many connections reached the backend.
func (p *FaultProxy) Forwarded() int64 { return p.forwarded.Load() }

// Partitioned returns how many connections a partition affected: closed
// at accept under PartitionBoth, or piped with one direction severed
// under the asymmetric modes.
func (p *FaultProxy) Partitioned() int64 { return p.partitioned.Load() }

// Killed returns how many established pipe endpoints SetPartition closed.
func (p *FaultProxy) Killed() int64 { return p.killed.Load() }

// Close stops accepting, unblocks black-holed and delayed connections,
// closes every established pipe (pooled clients keep theirs open), and
// waits for the pipes to wind down.
func (p *FaultProxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	for c := range p.established {
		_ = c.Close()
	}
	p.mu.Unlock()
	close(p.stop)
	err := p.ln.Close()
	p.wg.Wait()
	return err
}

// track registers a pipe's endpoints for partition kills and Close; it
// reports false, registering nothing, once the proxy is closed. untrack
// removes an endpoint again when the pipe winds down.
func (p *FaultProxy) track(client, server net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.established[client] = struct{}{}
	p.established[server] = struct{}{}
	return true
}

func (p *FaultProxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.established, c)
	p.mu.Unlock()
}

func (p *FaultProxy) serve() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		drop, delay, blackhole, partition := p.decide()
		if drop || partition == PartitionBoth {
			if drop {
				p.dropped.Add(1)
			} else {
				p.partitioned.Add(1)
			}
			_ = conn.Close()
			continue
		}
		p.wg.Add(1)
		go p.pipe(conn, delay, blackhole, partition)
	}
}

// decide samples the fate of one connection under the current knobs.
func (p *FaultProxy) decide() (drop bool, delay time.Duration, blackhole bool, partition PartitionMode) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.loss > 0 && p.rng.Float64() < p.loss {
		drop = true
	}
	return drop, p.delay, p.blackhole, p.partition
}

func (p *FaultProxy) pipe(client net.Conn, delay time.Duration, blackhole bool, partition PartitionMode) {
	defer p.wg.Done()
	defer client.Close()
	if blackhole {
		p.blackholed.Add(1)
		// Swallow the client's bytes until it gives up (its deadline) or
		// the proxy closes; never answer.
		readDone := make(chan struct{})
		go func() {
			_, _ = io.Copy(io.Discard, client)
			close(readDone)
		}()
		select {
		case <-p.stop:
		case <-readDone:
		}
		return
	}
	// A delayed connection is held from the client's first bytes, not
	// from the accept: the client times its request from the write, which
	// can lag the accept by a scheduling quantum.
	var first []byte
	if delay > 0 {
		var ok bool
		if first, ok = p.hold(client, delay); !ok {
			return
		}
	}
	server, err := net.DialTimeout("tcp", p.backend, 5*time.Second)
	if err != nil {
		return
	}
	defer server.Close()
	if partition != PartitionOff {
		p.partitioned.Add(1)
	} else {
		p.forwarded.Add(1)
	}
	// Clients pool connections and keep them open, so a pipe may carry
	// many requests; a deadline still caps its life against wedged
	// endpoints (the client redials after it).
	deadline := time.Now().Add(time.Minute)
	_ = client.SetDeadline(deadline)
	_ = server.SetDeadline(deadline)
	if !p.track(client, server) {
		return
	}
	defer p.untrack(client)
	defer p.untrack(server)
	var once sync.Once
	closeBoth := func() { _ = client.Close(); _ = server.Close() }
	// An asymmetric partition severs exactly one data direction: the
	// swallowed side copies into the void (so the sender never blocks or
	// errors — its bytes just vanish, as on a real one-way cut), while
	// the other side keeps flowing until an endpoint gives up.
	toBackend := io.Writer(server)
	fromBackend := io.Writer(client)
	switch partition {
	case PartitionToBackend:
		toBackend = io.Discard
	case PartitionFromBackend:
		fromBackend = io.Discard
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		if _, err := toBackend.Write(first); err == nil {
			_, _ = io.Copy(toBackend, client)
		}
		once.Do(closeBoth)
	}()
	_, _ = io.Copy(fromBackend, server)
	once.Do(closeBoth)
}

// hold waits for the client's first bytes, then for delay, and returns
// the bytes read. It reports false when the client hung up first or the
// proxy closed, which also unblocks the read.
func (p *FaultProxy) hold(client net.Conn, delay time.Duration) ([]byte, bool) {
	buf := make([]byte, 4096)
	read := make(chan int, 1)
	go func() {
		n, _ := client.Read(buf)
		read <- n
	}()
	var n int
	select {
	case n = <-read:
	case <-p.stop:
		_ = client.Close()
		<-read
		return nil, false
	}
	if n == 0 {
		return nil, false
	}
	t := time.NewTimer(delay)
	defer t.Stop()
	select {
	case <-t.C:
		return buf[:n], true
	case <-p.stop:
		return nil, false
	}
}
