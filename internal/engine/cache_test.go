package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"
)

// TestResultCacheEvictsLeastRecentlyUsed: the result cache is one exact
// LRU. After MaxResults distinct stores, a lookup of the first key and one
// more store, the second key is the only one evicted.
func TestResultCacheEvictsLeastRecentlyUsed(t *testing.T) {
	const maxResults = 10
	c := NewCache(CacheConfig{MaxResults: maxResults})
	key := func(i int) string { return fmt.Sprintf("k%d", i) }
	for i := 1; i <= maxResults; i++ {
		c.storeResult(key(i), &Result{Size: i})
	}
	c.lookupResult(key(1))
	c.storeResult(key(maxResults+1), &Result{Size: maxResults + 1})
	var evicted []string
	for i := 1; i <= maxResults+1; i++ {
		if _, ok := c.lookupResult(key(i)); !ok {
			evicted = append(evicted, key(i))
		}
	}
	if len(evicted) != 1 || evicted[0] != key(2) {
		t.Fatalf("evicted %v, want [k2]", evicted)
	}
	if st := c.Stats(); st.Results != maxResults || st.ResultEvictions != 1 {
		t.Fatalf("resident %d, evictions %d; want %d and 1", st.Results, st.ResultEvictions, maxResults)
	}
}

// TestResultCacheHoldsMaxResults: MaxResults distinct keys of resultKey's
// shape (one instance, every algo, consecutive seeds) all stay resident.
func TestResultCacheHoldsMaxResults(t *testing.T) {
	const maxResults = 256
	c := NewCache(CacheConfig{MaxResults: maxResults})
	sum := sha256.Sum256([]byte("instance"))
	inst := hex.EncodeToString(sum[:])
	algos := []Algo{AlgoApprox, AlgoMax, AlgoMaxWeight, AlgoGreedy}
	keys := make([]string, maxResults)
	for i := range keys {
		keys[i] = Spec{Algo: algos[i%len(algos)], Seed: int64(i / len(algos))}.resultKey(inst)
		c.storeResult(keys[i], &Result{Size: i})
	}
	resident := 0
	for _, k := range keys {
		if _, ok := c.lookupResult(k); ok {
			resident++
		}
	}
	if resident != maxResults {
		t.Fatalf("%d of %d keys resident", resident, maxResults)
	}
	if st := c.Stats(); st.ResultEvictions != 0 {
		t.Fatalf("%d evictions below the bound", st.ResultEvictions)
	}
}

// TestResultCacheConcurrentCounters: 16 goroutines storing and looking up
// results at once leave the cache consistent. Every lookup counts as
// exactly one hit or one miss, and residency stays at the bound.
func TestResultCacheConcurrentCounters(t *testing.T) {
	const (
		goroutines = 16
		lookups    = 500 // per goroutine
		keys       = 96  // distinct keys, more than maxResults
		maxResults = 64
	)
	c := NewCache(CacheConfig{MaxResults: maxResults})
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < lookups; i++ {
				// 7 is coprime to keys, so every goroutine touches every key.
				k := fmt.Sprintf("k%d", (w+7*i)%keys)
				if _, ok := c.lookupResult(k); !ok {
					c.storeResult(k, &Result{Size: i})
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if got := st.ResultHits + st.ResultMisses; got != goroutines*lookups {
		t.Fatalf("hits %d + misses %d = %d, want %d lookups", st.ResultHits, st.ResultMisses, got, goroutines*lookups)
	}
	if st.Results != maxResults {
		t.Fatalf("resident %d, want %d", st.Results, maxResults)
	}
	// Each store follows a miss, and only a store of a new key adds an
	// entry, so entries ever added (resident + evicted) cannot exceed the
	// misses.
	if added := int64(st.Results) + st.ResultEvictions; added > st.ResultMisses {
		t.Fatalf("resident %d + evicted %d > misses %d", st.Results, st.ResultEvictions, st.ResultMisses)
	}
}
