package softstate

import (
	"sync"
	"testing"

	"gsso/internal/landmark"
)

// BenchmarkStoreParallelPublish drives four goroutines publishing
// disjoint member subsets into one store: every publish takes the
// store's one lock, so this measures the lock under contention. Read
// results alongside GOMAXPROCS.
func BenchmarkStoreParallelPublish(b *testing.B) {
	const workers = 4
	h := newHarness(b, 64, DefaultConfig())
	s := h.store
	members := h.overlay.CAN().Members()
	vecs := make([]landmark.Vector, len(members))
	for i, m := range members {
		vecs[i] = landmark.Measure(h.env, m.Host, h.space.Set())
		if err := s.Publish(m, vecs[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	// Explicit goroutines, not b.RunParallel: each worker owns a member
	// subset so the workload is publish-heavy with disjoint keys.
	var wg sync.WaitGroup
	per := b.N/workers + 1
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				idx := (w + i*workers) % len(members)
				if err := s.Publish(members[idx], vecs[idx]); err != nil {
					b.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkStoreLookup measures the read path against a populated store:
// one sorted snapshot, the two-cursor walk, the full-vector sort.
func BenchmarkStoreLookup(b *testing.B) {
	h := newHarness(b, 64, DefaultConfig())
	if err := h.store.PublishAll(nil); err != nil {
		b.Fatal(err)
	}
	m := h.overlay.CAN().Members()[0]
	region := h.store.regionsOf(m)[0]
	vec := h.store.Vector(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := h.store.Lookup(region, vec); err != nil {
			b.Fatal(err)
		}
	}
}
