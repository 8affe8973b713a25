package main

import (
	"bufio"
	"bytes"
	"fmt"
	"time"

	"gsso/internal/wire"
)

// The live workloads run an in-process fleet of wire.Node on 127.0.0.1:0:
// traffic crosses the host's loopback TCP, not a real link. Nodes keep their
// default options (replication 2, pool 2, binary codec, no batching, tracing
// off).

const (
	fleetLandmarks = 3
	fleetTTL       = time.Hour
	rpcTimeout     = 5 * time.Second // far above any op: a stalled host must not fail an op
	replyRecords   = 30              // Max of every benchmark query
)

// spaceConfig maps every loopback RTT to cell 0 (MaxRTTMs is a thousand
// times any loopback round trip), so record placement cannot depend on
// scheduler jitter.
func spaceConfig(landmarks []string) wire.SpaceConfig {
	return wire.SpaceConfig{Landmarks: landmarks, IndexDims: 3, BitsPerDim: 6, MaxRTTMs: 1000}
}

// curveNumbers is the size of the 3x6-bit landmark curve.
const curveNumbers = 1 << 18

type fleet struct {
	landmarks []*wire.Node
	serving   []*wire.Node
	addrs     []string // serving addresses, in boot order
}

// bootFleet starts the landmark nodes, then the serving nodes, and sets the
// serving ring on every serving node with SetPeers.
func bootFleet(serving int, tr *tracer) (*fleet, error) {
	tr.begin("wire.boot")
	defer tr.end()
	f := &fleet{}
	var lmAddrs []string
	for i := 0; i < fleetLandmarks; i++ {
		// Landmarks only answer pings; their own space is never used.
		n, err := wire.NewNode("127.0.0.1:0", spaceConfig([]string{"unused"}), nil, fleetTTL)
		if err != nil {
			f.close()
			return nil, err
		}
		f.landmarks = append(f.landmarks, n)
		lmAddrs = append(lmAddrs, n.Addr())
	}
	cfg := spaceConfig(lmAddrs)
	for i := 0; i < serving; i++ {
		n, err := wire.NewNode("127.0.0.1:0", cfg, nil, fleetTTL)
		if err != nil {
			f.close()
			return nil, err
		}
		f.serving = append(f.serving, n)
		f.addrs = append(f.addrs, n.Addr())
	}
	for _, n := range f.serving {
		if _, err := n.SetPeers(f.addrs, rpcTimeout); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

func (f *fleet) close() {
	for _, n := range f.serving {
		_ = n.Close() // shutting down: nothing left to do with a listener error
	}
	for _, n := range f.landmarks {
		_ = n.Close()
	}
}

// counters sums the nodes' own telemetry over the fleet, read through
// Node.Registry().Snapshot().
func (f *fleet) counters() map[string]float64 {
	out := map[string]float64{}
	for _, group := range [][]*wire.Node{f.landmarks, f.serving} {
		for _, n := range group {
			for _, fam := range n.Registry().Snapshot().Families {
				switch fam.Name {
				case "wire_requests_total", "wire_conn_dials_total", "wire_retries_total", "wire_failover_total":
					for _, s := range fam.Series {
						out[fam.Name] += s.Value
					}
				case "wire_serve_latency_ms":
					for _, s := range fam.Series {
						if s.Hist != nil {
							out["serve_sum_ms"] += s.Hist.Sum
							out["serve_count"] += float64(s.Hist.Count)
						}
					}
				}
			}
		}
	}
	return out
}

// deriveWire turns the fleet counter deltas of a phase into per-op counts.
func deriveWire(ph phase, out map[string]float64) {
	ops := float64(len(ph.samples))
	if ops == 0 {
		return
	}
	out["wire.msgs_per_op"] = ph.counters["wire_requests_total"] / ops
	out["wire.dials_per_op"] = ph.counters["wire_conn_dials_total"] / ops
	out["wire.retries_per_op"] = ph.counters["wire_retries_total"] / ops
	out["wire.failovers"] = ph.counters["wire_failover_total"]
}

// timeBatch runs fn n times inside one span and returns ns per call; it is
// for calls too short to time one by one.
func timeBatch(tr *tracer, name string, n int, fn func() error) (float64, error) {
	tr.begin(name)
	defer tr.end()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0)) / float64(n), nil
}

// probePing measures the codec + transport + dispatch floor: one MsgPing
// round trip on an established connection.
func probePing(tr *tracer, client *wire.Transport, addrs []string, out map[string]float64) error {
	i := 0
	ns, err := timeBatch(tr, "wire.ping_rtt", 2000, func() error {
		resp, err := client.RoundTrip(addrs[i%len(addrs)], wire.Message{Type: wire.MsgPing}, rpcTimeout)
		i++
		if err == nil && resp.Type != wire.MsgPong {
			err = fmt.Errorf("ping answered with %q", resp.Type)
		}
		return err
	})
	out["wire.ping_rtt_us"] = ns / 1e3
	return err
}

// probeCodec encodes and decodes a full query reply (30 synthetic records,
// the same for both live workloads) into a buffer.
func probeCodec(tr *tracer, out map[string]float64) error {
	reply := wire.Message{Type: wire.MsgRecords, Seq: 1, Records: genRecords(1, 1, replyRecords)[0]}
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	ns, err := timeBatch(tr, "wire.codec.encode_reply", 5000, func() error {
		buf.Reset()
		return wire.WriteMessageCodec(bw, reply, wire.CodecBinary)
	})
	if err != nil {
		return err
	}
	out["wire.codec.encode_reply_us"] = ns / 1e3
	frame := append([]byte(nil), buf.Bytes()...)
	rd := bytes.NewReader(frame)
	br := bufio.NewReader(rd)
	ns, err = timeBatch(tr, "wire.codec.decode_reply", 5000, func() error {
		rd.Reset(frame)
		br.Reset(rd)
		m, err := wire.ReadMessage(br)
		if err == nil && len(m.Records) != len(reply.Records) {
			err = fmt.Errorf("decoded %d records, encoded %d", len(m.Records), len(reply.Records))
		}
		return err
	})
	out["wire.codec.decode_reply_us"] = ns / 1e3
	return err
}
