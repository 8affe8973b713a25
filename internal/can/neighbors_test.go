package can

import (
	"sync"
	"testing"

	"gsso/internal/simrand"
	"gsso/internal/topology"
)

// leafZones returns the overlay's member leaves in zone-path order.
func leafZones(o *Overlay) []*zone {
	ms := o.Members()
	out := make([]*zone, len(ms))
	for i, m := range ms {
		out[i] = m.leaf
	}
	return out
}

// abutDim returns the one dimension in which adjacent zones a and b, given
// as boxes, do not overlap, and whether b lies against a's lo face there
// (possibly across the torus seam).
func abutDim(a, b []uint64) (k int, lo bool) {
	for k := 0; k < len(a); k += 2 {
		if a[k] <= b[k+1] && b[k] <= a[k+1] {
			continue
		}
		return k / 2, b[k+1]+1 == a[k]
	}
	return -1, false
}

// checkDerivedNeighbors compares every leaf's derived neighbor list — fresh,
// memoized, and as Member.Neighbors returns it — with brute-force
// adjacency over all leaf pairs, and checks the documented order: faces
// in dimension order, the lo face before the hi face.
func checkDerivedNeighbors(t *testing.T, o *Overlay, when string) {
	t.Helper()
	leaves := leafZones(o)
	boxes := make([][]uint64, len(leaves))
	index := make(map[*zone]int, len(leaves))
	for i, z := range leaves {
		boxes[i], index[z] = o.box(z.path), i
	}
	for ai, a := range leaves {
		want := map[*zone]bool{}
		for bi, b := range leaves {
			if bi != ai && adjacent(boxes[ai], boxes[bi]) {
				want[b] = true
			}
		}
		derived := o.deriveNeighbors(a)
		memo := o.neighbors(a)
		members := a.member.Neighbors()
		if len(derived) != len(want) || len(memo) != len(derived) || len(members) != len(derived) {
			t.Fatalf("%s: leaf %s: derived %d, memo %d, Neighbors() %d neighbors; %d leaves are adjacent",
				when, a.path, len(derived), len(memo), len(members), len(want))
		}
		lastDim, lastLo := -1, true
		for i, nb := range derived {
			if !want[nb] {
				t.Fatalf("%s: leaf %s: derived %s, which is not adjacent (or listed twice)", when, a.path, nb.path)
			}
			delete(want, nb)
			if memo[i] != nb || members[i] != nb.member {
				t.Fatalf("%s: leaf %s: memo or Neighbors() disagrees with the derivation at %d", when, a.path, i)
			}
			k, lo := abutDim(boxes[ai], boxes[index[nb]])
			if k < lastDim || (k == lastDim && lo && !lastLo) {
				t.Fatalf("%s: leaf %s: neighbor %d (%s) out of face order", when, a.path, i, nb.path)
			}
			lastDim, lastLo = k, lo
		}
	}
}

// TestDerivedNeighborsMatchAdjacency: neighbor lists derived from the split
// tree equal brute-force adjacency after every join, depart, takeover and
// avoiding takeover, from a single member (no neighbors) and two members
// (both faces of the split dimension wrap to the same leaf; every other
// dimension is spanned whole) up to a few hundred.
func TestDerivedNeighborsMatchAdjacency(t *testing.T) {
	for _, dim := range []int{1, 2, 3} {
		o, err := New(dim)
		if err != nil {
			t.Fatal(err)
		}
		rng := simrand.New(uint64(dim)).Split("can/derived")
		host := topology.NodeID(0)
		for i := 0; i < 300; i++ {
			if _, err := o.JoinRandom(host, rng); err != nil {
				t.Fatal(err)
			}
			host++
			if i < 64 || i%16 == 0 {
				checkDerivedNeighbors(t, o, "join")
			}
			switch o.Size() {
			case 1:
				if n := o.Members()[0].NeighborCount(); n != 0 {
					t.Fatalf("dim %d: a lone member has %d neighbors", dim, n)
				}
			case 2:
				ms := o.Members()
				if nbs := ms[0].Neighbors(); len(nbs) != 1 || nbs[0] != ms[1] {
					t.Fatalf("dim %d: two members are not each other's only neighbor", dim)
				}
			}
		}
		crashed := map[*Member]bool{}
		isCrashed := func(m *Member) bool { return crashed[m] }
		for i := 0; o.Size() > 40; i++ {
			ms := o.Members()
			m := ms[rng.Intn(len(ms))]
			switch i % 4 {
			case 0:
				err = o.Depart(m)
			case 1:
				_, err = o.Takeover(m)
			case 2:
				crashed[ms[rng.Intn(len(ms))]] = true
				crashed[m] = true
				_, err = o.TakeoverAvoiding(m, isCrashed)
			case 3:
				_, err = o.JoinRandom(host, rng)
				host++
			}
			if err != nil {
				t.Fatal(err)
			}
			checkDerivedNeighbors(t, o, "churn")
		}
		if err := o.CheckInvariants(); err != nil {
			t.Fatalf("dim %d: %v", dim, err)
		}
	}
}

// TestNeighborMemoConcurrentReaders: readers of a settled overlay fill the
// per-leaf neighbor memos concurrently (the experiment engine shares one
// overlay's expanding-ring search across workers) while others descend
// from the prefix directory through Lookup, PathOf and LeafAlong. Under
// -race this pins the memo's atomics and the directory's read-only use;
// without it, it still checks that every reader sees what a serial reader
// of an identically built overlay sees.
func TestNeighborMemoConcurrentReaders(t *testing.T) {
	const n, workers, queries = 2000, 4, 300
	want, got := takeoverOverlay(t, n, 17), takeoverOverlay(t, n, 17)
	wantMs, gotMs := want.Members(), got.Members()
	targets := make([]Point, queries)
	rng := simrand.New(3)
	for i := range targets {
		targets[i] = RandomPoint(2, rng)
	}
	hops := make([]int, queries)
	paths := make([]Path, queries)
	// along[i] names the region two levels above target i's leaf with every
	// bit beyond its length set, which LeafAlong must read as zeros.
	along := make([]Path, queries)
	owners, alongOwners := make([]topology.NodeID, queries), make([]topology.NodeID, queries)
	for i, p := range targets {
		path, err := want.Route(wantMs[(i*7)%n], p)
		if err != nil {
			t.Fatal(err)
		}
		hops[i] = len(path)
		if paths[i], err = want.PathOf(p); err != nil {
			t.Fatal(err)
		}
		l := max(paths[i].Len-2, 0)
		along[i] = Path{Bits: paths[i].Prefix(l).Bits | ^uint64(0)>>l, Len: l}
		owners[i], alongOwners[i] = want.Lookup(p).Host, want.LeafAlong(along[i]).Host
	}
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < queries; i += workers {
				m := gotMs[(i*13)%n]
				if m.NeighborCount() != wantMs[(i*13)%n].NeighborCount() {
					errs <- "NeighborCount differs from a serial reader's"
					return
				}
				path, err := got.Route(gotMs[(i*7)%n], targets[i])
				if err != nil || len(path) != hops[i] {
					errs <- "Route differs from a serial reader's"
					return
				}
				if got.Lookup(targets[i]).Host != owners[i] || got.LeafAlong(along[i]).Host != alongOwners[i] {
					errs <- "Lookup or LeafAlong differs from a serial reader's"
					return
				}
				if zp, err := got.PathOf(targets[i]); err != nil || zp != paths[i] {
					errs <- "PathOf differs from a serial reader's"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func BenchmarkJoinRandom100k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o, _ := New(2)
		rng := simrand.New(1)
		for j := 0; j < 100_000; j++ {
			if _, err := o.JoinRandom(topology.NodeID(j), rng); err != nil {
				b.Fatal(err)
			}
		}
	}
}
