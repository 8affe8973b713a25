package can

import (
	"testing"

	"gsso/internal/simrand"
	"gsso/internal/topology"
)

// TestZonePairsReusedUnderChurn cycles a 1k overlay through 10^4
// departures and joins: every merge frees a pair the next split takes
// back, so no pair block is made after the overlay is built. Without the
// free list the cycles would carve 10^4 more pairs in a score more blocks.
func TestZonePairsReusedUnderChurn(t *testing.T) {
	const n, cycles = 1000, 10_000
	o := takeoverOverlay(t, n, 5)
	blocks, pairs := o.pairs.count, o.pairs.total
	rng := simrand.New(6)
	host := topology.NodeID(n)
	ms := o.Members()
	for i := 0; i < cycles; i++ {
		j := rng.Intn(len(ms))
		var err error
		if i%2 == 0 {
			err = o.Depart(ms[j])
		} else {
			_, err = o.Takeover(ms[j])
		}
		if err != nil {
			t.Fatal(err)
		}
		if ms[j], err = o.JoinRandom(host, rng); err != nil {
			t.Fatal(err)
		}
		host++
	}
	if o.pairs.count != blocks || o.pairs.total != pairs {
		t.Fatalf("after %d cycles: %d pair blocks holding %d pairs, built with %d holding %d",
			cycles, o.pairs.count, o.pairs.total, blocks, pairs)
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestJoinRandomAllocs pins the block allocation of a join: the member, its
// point and the split's zone pair all come from blocks made a few times per
// doubling of the overlay, and a zone keeps no corners, so a steady-state
// join averages well under one allocation (the bound allows the member and
// its point).
func TestJoinRandomAllocs(t *testing.T) {
	o := takeoverOverlay(t, 10_000, 7)
	rng := simrand.New(8)
	host := topology.NodeID(10_000)
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := o.JoinRandom(host, rng); err != nil {
			t.Fatal(err)
		}
		host++
	})
	if allocs > 2 {
		t.Fatalf("JoinRandom averages %v allocations, want at most 2", allocs)
	}
}

// TestDirectoryAcrossDepths grows an overlay through several directory
// depths and drains it again, checking the directory against root
// descents at every power of two on the way.
func TestDirectoryAcrossDepths(t *testing.T) {
	for _, dim := range []int{1, 2, 3} {
		o, err := New(dim)
		if err != nil {
			t.Fatal(err)
		}
		rng := simrand.New(uint64(dim))
		for i := 0; i < 600; i++ {
			if _, err := o.JoinRandom(topology.NodeID(i), rng); err != nil {
				t.Fatal(err)
			}
			if i&(i+1) == 0 {
				if err := o.CheckInvariants(); err != nil {
					t.Fatalf("dim %d, %d members: %v", dim, o.Size(), err)
				}
			}
		}
		if o.dirDepth != dirDepthFor(600) {
			t.Fatalf("dim %d: directory depth %d at 600 members, want %d", dim, o.dirDepth, dirDepthFor(600))
		}
		for o.Size() > 0 {
			ms := o.Members()
			if err := o.Depart(ms[rng.Intn(len(ms))]); err != nil {
				t.Fatal(err)
			}
			if s := o.Size(); s&(s-1) == 0 {
				if err := o.CheckInvariants(); err != nil {
					t.Fatalf("dim %d, %d members: %v", dim, s, err)
				}
			}
		}
	}
}

// TestDirectoryRefillsOnShallowMerge crowds members into one corner so the
// rest of the space stays in leaves no deeper than the directory, then
// departs one whose sibling is a leaf: the merged parent must take over the
// directory slots its children held. Random overlays seldom merge that
// high up.
func TestDirectoryRefillsOnShallowMerge(t *testing.T) {
	o, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	host := topology.NodeID(0)
	join := func(p Point) {
		if _, err := o.Join(host, p); err != nil {
			t.Fatal(err)
		}
		host++
	}
	// The third join splits the right half into two leaves at depth 2.
	for _, p := range []Point{{0.25, 0.25}, {0.75, 0.75}, {0.75, 0.25}} {
		join(p)
	}
	rng := simrand.New(9)
	for i := 0; i < 60; i++ {
		join(Point{rng.Float64() / 4, rng.Float64() / 4})
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var shallow *Member
	for _, m := range o.Members() {
		if m.Depth() <= o.dirDepth {
			parent := o.parentOf(m.leaf)
			if parent.kids[0].isLeaf() && parent.kids[1].isLeaf() {
				shallow = m
				break
			}
		}
	}
	if shallow == nil {
		t.Fatalf("no member at depth <= %d with a leaf sibling", o.dirDepth)
	}
	if err := o.Depart(shallow); err != nil {
		t.Fatal(err)
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
