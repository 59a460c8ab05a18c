package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/rng"
)

// BenchmarkSolvePerRequest compares the one-shot path (decode + solve from
// scratch per request, what cmd/bmatch does) against a reused session
// (alias-table instance hit, then solve) and against a full result-cache
// hit. The solver seed and parameters are identical, so the deltas isolate
// the serving-layer reuse.
func BenchmarkSolvePerRequest(b *testing.B) {
	r := rng.New(3)
	g := graph.GnmWeighted(20000, 200000, 1, 10, r.Split())
	bud := graph.RandomBudgets(20000, 1, 4, r.Split())
	payload := graphio.AppendBinaryTo(nil, g, bud)
	ctx := context.Background()
	// The greedy solver keeps per-iteration solver cost small relative to
	// ingest, which is what the serving layer can actually save; the reuse
	// deltas are identical for the (1+ε) algorithms.
	spec := Spec{Algo: AlgoGreedy, Seed: 1, Workers: 1, NoCache: true}

	b.Run("oneshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			gg, bb, err := graphio.DecodeAnyLimits(payload, graphio.Limits{})
			if err != nil {
				b.Fatal(err)
			}
			m, err := baseline.GreedyWeightedCtx(ctx, gg, bb)
			if err != nil {
				b.Fatal(err)
			}
			if m.Size() == 0 {
				b.Fatal("empty matching")
			}
		}
	})
	b.Run("session", func(b *testing.B) {
		s := NewSession(nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			inst, err := s.Instance(payload)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Solve(ctx, inst, spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("session-cached", func(b *testing.B) {
		s := NewSession(nil)
		cached := spec
		cached.NoCache = false
		// One uncached solve fills the result cache; only hits are timed.
		inst, err := s.Instance(payload)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Solve(ctx, inst, cached); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			inst, err := s.Instance(payload)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Solve(ctx, inst, cached); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCacheContention measures the result-cache hit path under 16
// concurrent cached solves on distinct keys: the pool's steady state when
// a hot instance is re-requested with many seeds. Every hit is an LRU
// MoveToFront under the cache's one mutex. Contention needs multiple cores
// to show: on a single-CPU box the goroutines serialize either way.
// BenchmarkCacheContentionRaw isolates the lock+LRU cost from the Solve
// wrapper.
func BenchmarkCacheContention(b *testing.B) {
	r := rng.New(9)
	g, bud := graph.ClientServer(200, 12, 4, 3, 20, r.Split())
	const conc = 16
	const distinctSeeds = 64
	ctx := context.Background()

	cache := NewCache(CacheConfig{MaxResults: 1024})
	warm := NewSession(cache)
	inst, err := warm.InstanceFromGraph(g, bud)
	if err != nil {
		b.Fatal(err)
	}
	for seed := int64(0); seed < distinctSeeds; seed++ {
		if _, err := warm.Solve(ctx, inst, Spec{Algo: AlgoGreedy, Seed: seed}); err != nil {
			b.Fatal(err)
		}
	}
	per := (b.N + conc - 1) / conc
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := NewSession(cache)
			for i := 0; i < per; i++ {
				seed := int64((w*per + i) % distinctSeeds)
				res, err := s.Solve(ctx, inst, Spec{Algo: AlgoGreedy, Seed: seed})
				if err != nil {
					b.Error(err)
					return
				}
				if !res.FromCache {
					b.Error("expected a result-cache hit")
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkCacheContentionRaw is the pure lock-path variant: 16 goroutines
// hammering lookupResult on 64 resident keys, nothing else on the hot
// path.
func BenchmarkCacheContentionRaw(b *testing.B) {
	const conc = 16
	const distinctKeys = 64
	keys := make([]string, distinctKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("instancehash|greedy|0.25|%d|false", i)
	}
	cache := NewCache(CacheConfig{MaxResults: 1024})
	for i, k := range keys {
		cache.storeResult(k, &Result{Size: i})
	}
	per := (b.N + conc - 1) / conc
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, ok := cache.lookupResult(keys[(w*per+i)%distinctKeys]); !ok {
					b.Error("expected a hit")
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
