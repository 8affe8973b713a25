package softstate

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"gsso/internal/can"
	"gsso/internal/landmark"
	"gsso/internal/netsim"
)

// modelEntry is one entry of the reference model, tagged with its region.
type modelEntry struct {
	region can.Path
	Entry
}

// lookupModel is the reference FuzzStoreLookup checks Store against: one
// flat slice of every entry, and Table 1's lookup rule applied literally
// to a fresh sort at every call. It borrows only placement from the store
// under test (regionsOf, OwnerOf), never its maps.
type lookupModel struct {
	s        *Store
	cfg      Config
	entries  []modelEntry
	numbers  map[*can.Member]uint64
	filter   func(region can.Path, number uint64) bool
	messages map[string]int64
}

func (md *lookupModel) index(region can.Path, m *can.Member) int {
	return slices.IndexFunc(md.entries, func(e modelEntry) bool { return e.region == region && e.Member == m })
}

func (md *lookupModel) blocked(region can.Path, number uint64) bool {
	return md.filter != nil && !md.filter(region, number)
}

func (md *lookupModel) count(category string, n int) {
	if n > 0 {
		md.messages[category] += int64(n)
	}
}

// publish writes m's entry into every enclosing region the filter lets
// through; a blocked region keeps whatever entry it held before.
func (md *lookupModel) publish(m *can.Member, vec landmark.Vector, capacity float64, now netsim.Time) {
	num, _ := md.s.space.Number(vec)
	md.numbers[m] = num
	kept, dropped := 0, 0
	for _, region := range md.s.regionsOf(m) {
		if md.blocked(region, num) {
			dropped++
			continue
		}
		kept++
		e := Entry{Member: m, Host: m.Host, Vector: vec, Number: num, Expires: now + md.cfg.TTL}
		if i := md.index(region, m); i >= 0 {
			e.Capacity, e.Load = md.entries[i].Capacity, md.entries[i].Load
			md.entries = slices.Delete(md.entries, i, i+1)
		}
		if capacity >= 0 {
			e.Capacity = capacity
		}
		md.entries = append(md.entries, modelEntry{region, e})
	}
	md.count("publish-dropped", dropped)
	md.messages["publish"] += int64(kept)
}

func (md *lookupModel) deleteAll(m *can.Member, category string) {
	if _, ok := md.numbers[m]; !ok {
		return
	}
	delete(md.numbers, m)
	n := len(md.entries)
	md.entries = slices.DeleteFunc(md.entries, func(e modelEntry) bool { return e.Member == m })
	md.count(category, n-len(md.entries))
}

func (md *lookupModel) updateLoad(m *can.Member, load float64) {
	if _, ok := md.numbers[m]; !ok {
		return
	}
	n := 0
	for i := range md.entries {
		if md.entries[i].Member == m {
			md.entries[i].Load = load
			n++
		}
	}
	md.count("publish", n)
}

func (md *lookupModel) sweep(now netsim.Time) {
	md.entries = slices.DeleteFunc(md.entries, func(e modelEntry) bool { return e.Expires < now })
}

func (md *lookupModel) refreshAll(now netsim.Time) {
	batches := 0
	for _, m := range md.s.overlay.CAN().Members() {
		num, ok := md.numbers[m]
		if !ok {
			continue
		}
		touched, dropped := 0, 0
		for _, region := range md.s.regionsOf(m) {
			if md.blocked(region, num) {
				dropped++
				continue
			}
			if i := md.index(region, m); i >= 0 {
				md.entries[i].Expires = now + md.cfg.TTL
				touched++
			}
		}
		md.count("publish-dropped", dropped)
		if touched > 0 {
			batches++
		}
	}
	md.count("refresh-batch", batches)
}

// lookup is Table 1's rule: sort the region's entries by number (host
// breaks ties), walk outward from the query's number taking the nearer
// side (the lower side on a tie), charge one expand hop per owner not yet
// seen and close a side when the budget is spent, gather live entries
// until 3×MaxReturn, rank them by full vector (host breaks ties, the walk
// order after that) and keep MaxReturn.
func (md *lookupModel) lookup(region can.Path, vec landmark.Vector, now netsim.Time) ([]Entry, LookupCost) {
	num, _ := md.s.space.Number(vec)
	cost := LookupCost{RouteMessages: 2}
	md.messages["lookup"] += 2
	var sorted []Entry
	for _, e := range md.entries {
		if e.region == region {
			sorted = append(sorted, e.Entry)
		}
	}
	if len(sorted) == 0 {
		return nil, cost
	}
	slices.SortFunc(sorted, func(a, b Entry) int {
		return cmp.Or(cmp.Compare(a.Number, b.Number), cmp.Compare(a.Host, b.Host))
	})
	hi := 0
	for hi < len(sorted) && sorted[hi].Number < num {
		hi++
	}
	lo := hi - 1
	seen := []*can.Member{md.s.OwnerOf(region, num)}
	var got []Entry
	take := func(e Entry) bool {
		if o := md.s.OwnerOf(region, e.Number); !slices.Contains(seen, o) {
			if cost.ExpandHops == md.cfg.ExpandBudget {
				return false
			}
			seen = append(seen, o)
			cost.ExpandHops++
			md.messages["lookup-expand"]++
		}
		if e.Expires >= now {
			got = append(got, e)
		}
		return true
	}
	loOpen, hiOpen := lo >= 0, hi < len(sorted)
	for len(got) < 3*md.cfg.MaxReturn && (loOpen || hiOpen) {
		if loOpen && (!hiOpen || num-sorted[lo].Number <= sorted[hi].Number-num) {
			if loOpen = take(sorted[lo]); loOpen {
				lo--
				loOpen = lo >= 0
			}
		} else if hiOpen = take(sorted[hi]); hiOpen {
			hi++
			hiOpen = hi < len(sorted)
		}
	}
	slices.SortStableFunc(got, func(a, b Entry) int {
		return cmp.Or(cmp.Compare(landmark.Distance(a.Vector, vec), landmark.Distance(b.Vector, vec)),
			cmp.Compare(a.Host, b.Host))
	})
	return got[:min(len(got), md.cfg.MaxReturn)], cost
}

// FuzzStoreLookup runs a byte script of publishes, republishes, removals,
// purges, load updates, clock steps, sweeps, refreshes, publish-filter
// changes and lookups against a Store and against lookupModel. After every
// step the live-entry count and every message counter must agree; every lookup must return the same entries in
// the same order at the same LookupCost.
//
// Script layout: a header of five bytes (index dims 1–4, bits per dim
// 2–4, condense depth 0–3, MaxReturn 1–4, ExpandBudget 0–4), then ops of
// an opcode byte and its operands. Vector components take nine levels
// from 0 to 1.1×MaxRTT, so numbers collide, ties on both sides of a query
// are common, and the top level clamps.
func FuzzStoreLookup(f *testing.F) {
	f.Add([]byte{2, 0, 0, 1, 2, 0, 1, 1, 2, 3, 4, 0, 5, 3, 5, 7, 1, 9, 0, 0, 1, 2, 3, 4})
	f.Add([]byte{0, 1, 1, 2, 1, 0, 3, 0, 0, 0, 0, 0, 3, 5, 5, 1, 2, 0, 0, 0, 0, 8, 1, 0, 3, 8, 8, 8, 8, 9, 3, 0, 0, 0, 0, 0})
	f.Add([]byte{3, 2, 0, 0, 4, 0, 0, 1, 1, 1, 1, 0, 1, 7, 7, 7, 7, 0, 2, 4, 4, 4, 4, 5, 2, 9, 0, 1, 4, 4, 4, 4, 6, 7, 9, 1, 0, 4, 4, 4, 4})
	f.Add([]byte{1, 0, 2, 3, 3, 0, 4, 8, 8, 0, 0, 4, 4, 1, 5, 2, 6, 0, 6, 2, 4, 4, 4, 4, 9, 6, 1, 4, 4, 4, 4, 1, 7, 2, 7})
	h := newHarness(f, 24, DefaultConfig())
	members := h.overlay.CAN().Members()
	maxRTT := h.space.MaxRTT()
	f.Fuzz(func(t *testing.T, script []byte) {
		next := func() byte {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return b
		}
		dims, bits := 1+int(next()%4), 2+int(next()%3)
		space, err := landmark.NewSpace(h.space.Set(), dims, bits, maxRTT)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.TTL = 100
		cfg.CondenseDepth = int(next() % 4)
		cfg.MaxReturn = 1 + int(next()%4)
		cfg.ExpandBudget = int(next() % 5)
		env := netsim.New(h.net)
		s, err := NewStore(h.overlay, space, env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		md := &lookupModel{s: s, cfg: cfg, numbers: map[*can.Member]uint64{}, messages: map[string]int64{}}

		member := func() *can.Member { return members[int(next())%len(members)] }
		vector := func() landmark.Vector {
			b := [4]byte{next(), next(), next(), next()}
			vec := make(landmark.Vector, space.Set().Len())
			for i := range vec {
				level := b[i%4] % 9
				if i >= 4 {
					level = b[i%4] / 9 % 9
				}
				vec[i] = float64(level) / 8 * 1.1 * maxRTT
			}
			return vec
		}
		filters := []func(can.Path, uint64) bool{
			nil,
			func(region can.Path, _ uint64) bool { return region.Len != h.overlay.DigitLen() },
			func(_ can.Path, number uint64) bool { return number&1 == 0 },
			func(region can.Path, number uint64) bool { return region.Len == h.overlay.DigitLen() || number < 4 },
		}
		for step := 0; len(script) > 0; step++ {
			now := env.Clock().Now()
			switch op := next(); op % 10 {
			case 0:
				m, c := member(), next()
				vec := vector()
				capacity := -1.0
				var opts []PublishOption
				if c%3 == 0 {
					capacity = float64(c % 7)
					opts = append(opts, WithCapacity(capacity))
				}
				if err := s.Publish(m, vec, opts...); err != nil {
					t.Fatal(err)
				}
				md.publish(m, vec, capacity, now)
			case 1:
				m := member()
				s.Remove(m)
				md.deleteAll(m, "publish")
			case 2:
				m := member()
				s.Purge(m)
				md.deleteAll(m, "repair")
			case 3:
				m := member()
				s.ReportUnreachable(m)
				md.deleteAll(m, "reactive-delete")
			case 4:
				m, load := member(), float64(next()%5)
				s.UpdateLoad(m, load)
				md.updateLoad(m, load)
			case 5:
				env.Clock().Advance(netsim.Time(next()%6) * 25)
			case 6:
				s.SweepExpired()
				md.sweep(now)
			case 7:
				s.RefreshAll()
				md.refreshAll(now)
			case 8:
				md.filter = filters[next()%4]
				s.SetPublishFilter(md.filter)
			case 9:
				m, pick := member(), int(next())
				regions := append(s.regionsOf(m), m.Path().Prefix(1))
				region := regions[pick%len(regions)]
				vec := vector()
				found, cost, err := s.Lookup(region, vec)
				if err != nil {
					t.Fatal(err)
				}
				got := values(found)
				want, wantCost := md.lookup(region, vec, now)
				if cost != wantCost || !sameEntries(got, want) {
					t.Fatalf("step %d: Lookup(%v) = %v %+v, model %v %+v",
						step, region, describe(got), cost, describe(want), wantCost)
				}
			}
			if n := s.TotalEntries(); n != len(md.entries) {
				t.Fatalf("step %d: TotalEntries = %d, model %d", step, n, len(md.entries))
			}
			for _, category := range []string{"publish", "publish-dropped", "repair", "reactive-delete",
				"refresh-batch", "lookup", "lookup-expand"} {
				if got, want := env.Messages(category), md.messages[category]; got != want {
					t.Fatalf("step %d: %s messages = %d, model %d", step, category, got, want)
				}
			}
			for _, m := range members {
				num, ok := s.Number(m)
				want, wantOK := md.numbers[m]
				if ok != wantOK || num != want {
					t.Fatalf("step %d: Number(%v) = %d %v, model %d %v", step, m, num, ok, want, wantOK)
				}
			}
		}
	})
}

func values(es []*Entry) []Entry {
	out := make([]Entry, len(es))
	for i, e := range es {
		out[i] = *e
	}
	return out
}

func sameEntries(a, b []Entry) bool {
	return slices.EqualFunc(a, b, func(x, y Entry) bool {
		return x.Member == y.Member && x.Host == y.Host && x.Number == y.Number && x.Expires == y.Expires &&
			x.Capacity == y.Capacity && x.Load == y.Load && slices.Equal(x.Vector, y.Vector)
	})
}

func describe(es []Entry) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = fmt.Sprintf("h%d#%d", e.Host, e.Number)
	}
	return out
}
