package main

import (
	"fmt"

	"gsso/internal/simrand"
	"gsso/internal/wire"
)

// live-cycle: the protocol end to end on small stores. Every serving node
// has published once; two closed-loop clients alternate Node.Publish and
// Node.FindNearest across the nodes. Each op is about 6.5 request/response
// pairs (landmark pings, replica stores, owner query, candidate pings).

const (
	cycleServing   = 8
	cycleClients   = 2
	cycleOpList    = 1 << 12
	cyclePings     = 1 // pings per landmark in Publish
	cycleBudget    = 4 // candidates FindNearest probes
	cycleVerifyRds = 2
)

// cycleOp is one op: which serving node acts, and what it does.
type cycleOp struct {
	node    int32
	publish bool
}

// genCycleOps lays out each client's ops. Client c's op i runs on the node at
// position (2i+c) mod 8 of a seeded order, so a client only ever drives its
// own four nodes and no node runs two client calls at once. A client goes
// round its nodes publishing, then round them searching, so every node does
// both.
func genCycleOps(seed uint64) [][]cycleOp {
	order := simrand.New(seed).Split("live-cycle/order").Perm(cycleServing)
	out := make([][]cycleOp, cycleClients)
	for c := range out {
		out[c] = make([]cycleOp, cycleOpList)
		for i := range out[c] {
			out[c][i] = cycleOp{
				node:    int32(order[(2*i+c)%cycleServing]),
				publish: (i/(cycleServing/cycleClients))%2 == 0,
			}
		}
	}
	return out
}

type liveCycle struct {
	f      *fleet
	ops    [][]cycleOp
	member map[string]bool // serving addresses
}

func prepareLiveCycle(cfg config) (func(int, *tracer) (instance, error), error) {
	ops := genCycleOps(cfg.seed)
	return func(_ int, tr *tracer) (instance, error) {
		return buildLiveCycle(ops, tr)
	}, nil
}

func buildLiveCycle(ops [][]cycleOp, tr *tracer) (*liveCycle, error) {
	f, err := bootFleet(cycleServing, tr)
	if err != nil {
		return nil, err
	}
	l := &liveCycle{f: f, ops: ops, member: map[string]bool{}}
	for _, n := range f.serving {
		l.member[n.Addr()] = true
		if _, err := n.Publish(cyclePings, rpcTimeout); err != nil {
			l.close()
			return nil, err
		}
	}
	return l, nil
}

func (l *liveCycle) clients() int                 { return len(l.ops) }
func (l *liveCycle) counters() map[string]float64 { return l.f.counters() }
func (l *liveCycle) close()                       { l.f.close() }

func (l *liveCycle) publish(n *wire.Node, tr *tracer) (wire.Record, error) {
	tr.begin("wire.publish")
	rec, err := n.Publish(cyclePings, rpcTimeout)
	tr.end()
	return rec, err
}

// findNearest checks that the answer is a serving node other than the caller.
func (l *liveCycle) findNearest(n *wire.Node, tr *tracer) error {
	tr.begin("wire.find_nearest")
	addr, _, err := n.FindNearest(cycleBudget, rpcTimeout)
	tr.end()
	if err != nil {
		return err
	}
	if addr == n.Addr() || !l.member[addr] {
		return fmt.Errorf("find-nearest from %s returned %q", n.Addr(), addr)
	}
	return nil
}

func (l *liveCycle) op(c, i int, tr *tracer) (int64, error) {
	op := l.ops[c][i%len(l.ops[c])]
	n := l.f.serving[op.node]
	if op.publish {
		_, err := l.publish(n, tr)
		return 1, err
	}
	return 1, l.findNearest(n, tr)
}

// verify publishes from every node and reads the record back from every
// owner OwnersOf names, then runs FindNearest from every node.
func (l *liveCycle) verify(map[string]float64) (attempted, failed int64) {
	reader := wire.NewTransport(1)
	defer reader.Close()
	for round := 0; round < cycleVerifyRds; round++ {
		for _, n := range l.f.serving {
			attempted++
			rec, err := l.publish(n, nil)
			if err != nil || !l.onEveryOwner(reader, n, rec) {
				failed++
			}
			attempted++
			if err := l.findNearest(n, nil); err != nil {
				failed++
			}
		}
	}
	return attempted, failed
}

func (l *liveCycle) onEveryOwner(reader *wire.Transport, n *wire.Node, rec wire.Record) bool {
	for _, owner := range n.OwnersOf(rec.Number, n.Replication()) {
		resp, err := reader.RoundTrip(owner,
			wire.Message{Type: wire.MsgQuery, Number: rec.Number, Max: 4 * cycleServing}, rpcTimeout)
		if err != nil {
			return false
		}
		found := false
		for _, r := range resp.Records {
			if r.Addr == rec.Addr && r.Number == rec.Number && r.ExpiresUnixMilli == rec.ExpiresUnixMilli {
				found = true
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// probe splits an op from outside: the transport floor, the landmark
// measurement both calls start with, the number reduction and the codec.
func (l *liveCycle) probe(tr *tracer, out map[string]float64) error {
	client := wire.NewTransport(1)
	defer client.Close()
	if err := probePing(tr, client, l.f.addrs, out); err != nil {
		return err
	}
	n := l.f.serving[0]
	var vec []float64
	ns, err := timeBatch(tr, "wire.measure_vector", 500, func() (err error) {
		vec, err = n.MeasureVector(cyclePings, rpcTimeout)
		return err
	})
	if err != nil {
		return err
	}
	out["wire.measure_vector_us"] = ns / 1e3
	cfg := spaceConfig(make([]string, fleetLandmarks))
	ns, err = timeBatch(tr, "hilbert.number", 20000, func() error {
		_, err := cfg.Number(vec)
		return err
	})
	if err != nil {
		return err
	}
	out["hilbert.number_us"] = ns / 1e3
	return probeCodec(tr, out)
}

func (l *liveCycle) derive(ph phase, lv layerView, out map[string]float64) {
	out["wire.boot_ms"] = lv.mean("wire.boot") / 1e6
	out["wire.publish_us"] = lv.mean("wire.publish") / 1e3
	out["wire.find_nearest_us"] = lv.mean("wire.find_nearest") / 1e3
	deriveWire(ph, out)
}
