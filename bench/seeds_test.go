package main

import (
	"bytes"
	"fmt"
	"testing"

	"gsso/internal/simrand"
)

// opList renders everything a workload derives from the seed: its op list
// and, for live-query, the records the ops run against.
func opList(workload string, seed uint64) []byte {
	var b bytes.Buffer
	sz := config{}.sizes()
	switch workload {
	case "sim-route":
		fmt.Fprint(&b, genRoutePairs(seed, sz.overlayN, sz.routePairs))
	case "sim-scale":
		// The ops are the worlds w0, w1, ...: their sub-seeded streams.
		for i := 0; i < 32; i++ {
			fmt.Fprintln(&b, worldLabel(i), simrand.New(seed).Split(worldLabel(i)).Uint64())
		}
	case "live-query":
		fmt.Fprint(&b, genQueryOps(seed, queryServing))
		for _, node := range genRecords(seed, queryServing, 500) {
			for _, r := range node {
				fmt.Fprintln(&b, r.Addr, r.Number, r.Vector)
			}
		}
	case "live-cycle":
		fmt.Fprint(&b, genCycleOps(seed))
	}
	return b.Bytes()
}

func TestSeedsFixTheOpLists(t *testing.T) {
	for _, w := range workloads {
		one, again, two := opList(w.name, 1), opList(w.name, 1), opList(w.name, 2)
		if len(one) == 0 {
			t.Errorf("%s: empty op list", w.name)
		}
		if !bytes.Equal(one, again) {
			t.Errorf("%s: seed 1 generated two different op lists", w.name)
		}
		if bytes.Equal(one, two) {
			t.Errorf("%s: seeds 1 and 2 generated the same op list", w.name)
		}
	}
}

// Client c drives only the nodes at positions 2k+c, and every node both
// publishes and searches.
func TestCycleOpsKeepClientsApart(t *testing.T) {
	ops := genCycleOps(1)
	seen := map[int32]int{}
	did := map[int32][2]bool{}
	for c, list := range ops {
		for _, op := range list {
			if owner, ok := seen[op.node]; ok && owner != c {
				t.Fatalf("node %d driven by clients %d and %d", op.node, owner, c)
			}
			seen[op.node] = c
			d := did[op.node]
			if op.publish {
				d[0] = true
			} else {
				d[1] = true
			}
			did[op.node] = d
		}
	}
	if len(seen) != cycleServing {
		t.Errorf("%d nodes driven, want %d", len(seen), cycleServing)
	}
	for node, d := range did {
		if !d[0] || !d[1] {
			t.Errorf("node %d does not both publish and search: %v", node, d)
		}
	}
}

func TestBruteNearestOrder(t *testing.T) {
	recs := genRecords(3, 1, 200)[0]
	got := bruteNearest(recs, 1000, 30)
	if len(got) != 30 {
		t.Fatalf("got %d records, want 30", len(got))
	}
	for i := 1; i < len(got); i++ {
		if nearerTo(1000, got[i], got[i-1]) {
			t.Fatalf("records %d and %d out of order", i-1, i)
		}
	}
	in := map[string]bool{}
	for _, r := range got {
		in[r.Addr] = true
	}
	for _, r := range recs {
		if !in[r.Addr] && nearerTo(1000, r, got[len(got)-1]) {
			t.Fatalf("%s is nearer than the last record returned", r.Addr)
		}
	}
}
