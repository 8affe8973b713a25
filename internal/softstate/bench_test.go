package softstate

import (
	"fmt"
	"sync"
	"testing"

	"gsso/internal/landmark"
)

// benchParallelPublish drives `workers` goroutines publishing disjoint
// member subsets into a store with the given shard count. With one
// shard every publish serializes on the single lock (the pre-sharding
// behavior); with more shards, members whose landmark numbers land in
// different ranges publish without contending. On a multi-core box the
// curve is near-linear in shards until workers are satisfied; on one
// core the win reduces to cheaper lock handoff (less goroutine parking),
// so the curve flattens — read results alongside GOMAXPROCS.
func benchParallelPublish(b *testing.B, shards, workers int) {
	cfg := DefaultConfig()
	cfg.Shards = shards
	h := newHarness(b, 64, cfg)
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

func BenchmarkStoreParallelPublish(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			benchParallelPublish(b, shards, 4)
		})
	}
}

// BenchmarkStoreLookup measures the read path against a populated
// sharded store: snapshot per shard, cursor walk, full-vector sort.
func BenchmarkStoreLookup(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Shards = shards
			h := newHarness(b, 64, cfg)
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
		})
	}
}
