package topology

import (
	"math"
	"testing"

	"gsso/internal/simrand"
)

func TestAddEdgeValidation(t *testing.T) {
	g := NewGraph(3)
	cases := []struct {
		name    string
		u, v    NodeID
		w       float64
		wantErr bool
	}{
		{"ok", 0, 1, 1.5, false},
		{"self-loop", 1, 1, 1, true},
		{"out-of-range-hi", 0, 3, 1, true},
		{"out-of-range-lo", -1, 0, 1, true},
		{"zero-weight", 0, 2, 0, true},
		{"negative-weight", 0, 2, -2, true},
		{"nan-weight", 0, 2, math.NaN(), true},
		{"inf-weight", 0, 2, math.Inf(1), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := g.AddEdge(tc.u, tc.v, tc.w)
			if (err != nil) != tc.wantErr {
				t.Fatalf("AddEdge(%d,%d,%v) err = %v, wantErr %v", tc.u, tc.v, tc.w, err, tc.wantErr)
			}
		})
	}
}

func TestGraphUndirected(t *testing.T) {
	g := NewGraph(2)
	if err := g.AddEdge(0, 1, 3); err != nil {
		t.Fatal(err)
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Fatalf("degrees %d,%d", g.Degree(0), g.Degree(1))
	}
	if g.EdgeCount() != 1 {
		t.Fatalf("EdgeCount = %d", g.EdgeCount())
	}
	if g.Neighbors(0)[0].To != 1 || g.Neighbors(1)[0].To != 0 {
		t.Fatal("adjacency not mirrored")
	}
}

func TestDijkstraLine(t *testing.T) {
	// 0 -1- 1 -2- 2 -3- 3
	g := NewGraph(4)
	mustEdge(t, g, 0, 1, 1)
	mustEdge(t, g, 1, 2, 2)
	mustEdge(t, g, 2, 3, 3)
	d := g.Dijkstra(0)
	want := []float64{0, 1, 3, 6}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("d[%d] = %v, want %v", i, d[i], want[i])
		}
	}
}

func TestDijkstraPrefersCheaperLongerPath(t *testing.T) {
	// Direct 0-2 costs 10; 0-1-2 costs 3.
	g := NewGraph(3)
	mustEdge(t, g, 0, 2, 10)
	mustEdge(t, g, 0, 1, 1)
	mustEdge(t, g, 1, 2, 2)
	d := g.Dijkstra(0)
	if d[2] != 3 {
		t.Fatalf("d[2] = %v, want 3", d[2])
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := NewGraph(3)
	mustEdge(t, g, 0, 1, 1)
	d := g.Dijkstra(0)
	if !math.IsInf(d[2], 1) {
		t.Fatalf("d[2] = %v, want +Inf", d[2])
	}
}

func TestConnected(t *testing.T) {
	g := NewGraph(3)
	mustEdge(t, g, 0, 1, 1)
	if g.Connected() {
		t.Fatal("graph with isolated node reported connected")
	}
	mustEdge(t, g, 1, 2, 1)
	if !g.Connected() {
		t.Fatal("connected graph reported disconnected")
	}
	if !NewGraph(0).Connected() {
		t.Fatal("empty graph should be connected")
	}
}

func TestDijkstraSymmetryProperty(t *testing.T) {
	// On random undirected graphs, dist(a,b) == dist(b,a) and the triangle
	// inequality holds for shortest-path metrics.
	rng := simrand.New(99)
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(30)
		g := NewGraph(n)
		for i := 1; i < n; i++ {
			mustEdge(t, g, NodeID(i), NodeID(rng.Intn(i)), rng.Range(0.1, 10))
		}
		for e := 0; e < n; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				_ = g.AddEdge(NodeID(u), NodeID(v), rng.Range(0.1, 10)) // dup-tolerant: parallel edges only shorten nothing
			}
		}
		all := make([][]float64, n)
		for i := 0; i < n; i++ {
			all[i] = g.Dijkstra(NodeID(i))
		}
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if math.Abs(all[a][b]-all[b][a]) > 1e-9 {
					t.Fatalf("asymmetric: d(%d,%d)=%v d(%d,%d)=%v", a, b, all[a][b], b, a, all[b][a])
				}
				for c := 0; c < n; c++ {
					if all[a][b] > all[a][c]+all[c][b]+1e-9 {
						t.Fatalf("triangle violated: d(%d,%d)=%v > %v+%v", a, b, all[a][b], all[a][c], all[c][b])
					}
				}
			}
		}
	}
}

func mustEdge(t *testing.T, g *Graph, u, v NodeID, w float64) {
	t.Helper()
	if err := g.AddEdge(u, v, w); err != nil {
		t.Fatal(err)
	}
}
