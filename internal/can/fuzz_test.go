package can

import (
	"math"
	"testing"

	"gsso/internal/simrand"
	"gsso/internal/topology"
)

// runMembershipScript drives one overlay through a byte-encoded op
// sequence — the shared engine of the property test and the fuzz
// target. Ops are consumed two bytes at a time (kind, operand), so the
// fuzzer can shrink a failing interleaving byte by byte:
//
//	kind%4 == 0  join a fresh host
//	kind%4 == 1  graceful depart of member[operand%size]
//	kind%4 == 2  ungraceful takeover of member[operand%size]
//	kind%4 == 3  mark member[operand%size] crashed (no structural change)
//
// Whenever more than three members are marked crashed, a repair sweep
// takes them all over while avoiding the crash set — the multi-crash
// interleaving the self-healing loop must survive. After every single
// operation the split tree must satisfy CheckInvariants (which rejects a
// neighbor listed twice and a Size() that disagrees with the tree),
// Members() must come out in zone-path order, and the member zone volumes
// must sum to 1.
func runMembershipScript(t *testing.T, ops []byte) {
	o, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	rng := simrand.New(1)
	nextHost := topology.NodeID(0)
	crashed := map[*Member]bool{}
	isCrashed := func(m *Member) bool { return crashed[m] }

	check := func() {
		if err := o.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		members := o.Members()
		if len(members) != o.Size() {
			t.Fatalf("Size() = %d but the tree holds %d members", o.Size(), len(members))
		}
		sum := 0.0
		for i, m := range members {
			if !o.IsMember(m) {
				t.Fatalf("Members()[%d] fails IsMember", i)
			}
			if i > 0 && !pathLess(members[i-1].Path(), m.Path()) {
				t.Fatalf("Members() out of zone-path order at %d", i)
			}
			sum += math.Ldexp(1, -m.Path().Len)
		}
		if o.Size() > 0 && math.Abs(sum-1) > 1e-9 {
			t.Fatalf("zone volumes sum to %v, want 1", sum)
		}
	}
	repair := func() {
		for round := 0; round < 10; round++ {
			progress := false
			for _, m := range o.Members() {
				if !crashed[m] {
					continue
				}
				progress = true
				if _, err := o.TakeoverAvoiding(m, isCrashed); err != nil {
					t.Fatal(err)
				}
				check()
			}
			if !progress {
				break
			}
		}
		crashed = map[*Member]bool{}
	}

	for i := 0; i+1 < len(ops); i += 2 {
		kind, operand := ops[i]%4, int(ops[i+1])
		switch kind {
		case 0:
			if o.Size() >= 128 {
				continue
			}
			if _, err := o.JoinRandom(nextHost, rng); err != nil {
				t.Fatal(err)
			}
			nextHost++
		case 1:
			if o.Size() == 0 {
				continue
			}
			m := o.Members()[operand%o.Size()]
			delete(crashed, m)
			if err := o.Depart(m); err != nil {
				t.Fatal(err)
			}
		case 2:
			if o.Size() == 0 {
				continue
			}
			m := o.Members()[operand%o.Size()]
			delete(crashed, m)
			if _, err := o.Takeover(m); err != nil {
				t.Fatal(err)
			}
		case 3:
			if o.Size() == 0 {
				continue
			}
			crashed[o.Members()[operand%o.Size()]] = true
			if len(crashed) > 3 {
				repair()
			}
		}
		check()
	}
	repair()
	check()
	for _, m := range o.Members() {
		if crashed[m] {
			t.Fatal("crashed member survived final repair")
		}
	}
}

// TestMembershipProperty runs a long seeded random interleaving of
// joins, departs, crashes, and repairs — the deterministic always-on
// twin of FuzzMembership.
func TestMembershipProperty(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		rng := simrand.New(seed)
		ops := make([]byte, 600)
		// Bias toward joins so the overlay grows enough for interesting
		// takeovers: kinds 0,0,1,2,3,3 with equal weight.
		kinds := []byte{0, 0, 1, 2, 3, 3}
		for i := 0; i+1 < len(ops); i += 2 {
			ops[i] = kinds[rng.Intn(len(kinds))]
			ops[i+1] = byte(rng.Intn(256))
		}
		runMembershipScript(t, ops)
	}
}

// FuzzMembership lets the fuzzer search join/depart/crash interleavings
// for one that breaks the split tree. Run with a budget via
// `go test -fuzz FuzzMembership -fuzztime 30s ./internal/can`.
func FuzzMembership(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3})                               // grow
	f.Add([]byte{0, 0, 0, 1, 1, 0, 2, 1})                               // join, depart, takeover
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 3, 0, 3, 1, 3, 2, 3, 3, 3, 4}) // crash burst → repair
	f.Add([]byte{0, 0, 2, 0, 0, 1, 2, 0})                               // drain to empty and rejoin
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 2048 {
			ops = ops[:2048]
		}
		runMembershipScript(t, ops)
	})
}
