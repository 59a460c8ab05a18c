package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/mpc"
	"repro/internal/rng"
)

func testInstancePayload(tb testing.TB) (*graph.Graph, graph.Budgets, []byte) {
	tb.Helper()
	r := rng.New(7)
	g, b := graph.ClientServer(160, 10, 5, 3, 20, r.Split())
	return g, b, graphio.AppendBinaryTo(nil, g, b)
}

// TestQueueFull pins the bounded-admission contract at the Pool level: with
// one blocked worker and a single queue slot, an extra submit fails fast
// with ErrQueueFull.
func TestQueueFull(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 1, QueueDepth: 1, BatchMax: 1})
	defer p.Close()
	_, _, payload := testInstancePayload(t)
	inst, err := p.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	// Saturate: one job running (worker pulled it), one in the queue slot.
	// maxw on this instance is slow enough to hold the worker while the
	// rest of the test runs.
	type res struct {
		err error
	}
	done := make(chan res, 3)
	submit := func(seed int64) {
		// The two saturators race each other for the single queue slot, so
		// one may itself bounce; retry until it is admitted.
		for {
			_, err := p.Submit(context.Background(), inst, Spec{Algo: AlgoMaxWeight, Seed: seed, NoCache: true})
			if err != ErrQueueFull {
				done <- res{err}
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	go submit(1)
	go submit(2)
	// Wait until one job is running and the queue slot is full.
	for i := 0; len(p.queue) < 1; i++ {
		if i > 5000 {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}
	var sawFull bool
	for try := int64(0); try < 200 && !sawFull; try++ {
		_, err := p.Submit(context.Background(), inst, Spec{Algo: AlgoGreedy, Seed: 100 + try, NoCache: true})
		sawFull = err == ErrQueueFull
	}
	if !sawFull {
		t.Error("never observed ErrQueueFull with a saturated queue")
	}
	for i := 0; i < 2; i++ {
		if r := <-done; r.err != nil {
			t.Fatalf("saturating job failed: %v", r.err)
		}
	}
}

// TestPoolBatching: while a slow job holds the single worker, a burst of
// identical requests piles up and is coalesced into one batch (first
// computes, the rest hit the result cache); a non-matching job must still
// complete via the carry-over path.
func TestPoolBatching(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 1, QueueDepth: 16, BatchMax: 8})
	defer p.Close()
	_, _, payload := testInstancePayload(t)
	inst, err := p.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	submit := func(spec Spec) {
		defer wg.Done()
		if _, err := p.Submit(context.Background(), inst, spec); err != nil {
			t.Errorf("submit %+v: %v", spec, err)
		}
	}
	// Occupy the worker so the rest of the burst queues up behind it.
	wg.Add(1)
	go submit(Spec{Algo: AlgoMaxWeight, Seed: 99, NoCache: true})
	time.Sleep(50 * time.Millisecond)
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go submit(Spec{Algo: AlgoGreedy, Seed: 1})
	}
	time.Sleep(50 * time.Millisecond)
	wg.Add(1)
	go submit(Spec{Algo: AlgoGreedy, Seed: 2}) // distinct: must not coalesce
	wg.Wait()
	st := p.Stats()
	if st.Completed != 8 {
		t.Fatalf("completed = %d, want 8", st.Completed)
	}
	if st.MaxBatch < 2 {
		t.Logf("note: max batch %d (timing-dependent; coalescing not observed this run)", st.MaxBatch)
	}
}

// sliceFactory is a TransportFactory whose type cannot be compared with ==,
// because it holds a slice. Neither greedy nor maxw runs the MPC simulator,
// so it is never asked for a transport.
type sliceFactory struct{ addrs []string }

func (f sliceFactory) NewTransport(n, workers int) (mpc.Transport, error) {
	return nil, fmt.Errorf("sliceFactory: no transport to %v", f.addrs)
}

// TestPoolCoalescesWithAnyTransport: the pool's transport is a daemon
// setting of any type, so coalescing two identical queued requests must
// not compare it. A slow solve holds the only worker while two identical
// requests queue behind it; both must succeed.
func TestPoolCoalescesWithAnyTransport(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 1, QueueDepth: 4, BatchMax: 4,
		MPCTransport: sliceFactory{addrs: []string{"127.0.0.1:1"}}})
	defer p.Close()
	_, _, payload := testInstancePayload(t)
	inst, err := p.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	waitStats := func(what string, ok func(PoolStats) bool) {
		t.Helper()
		for i := 0; !ok(p.Stats()); i++ {
			if i > 5000 {
				t.Fatalf("never saw %s: %+v", what, p.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}

	slowCtx, cancelSlow := context.WithCancel(context.Background())
	defer cancelSlow()
	slowDone := make(chan error, 1)
	go func() {
		_, err := p.Submit(slowCtx, inst, Spec{Algo: AlgoMaxWeight, Seed: 1, NoCache: true})
		slowDone <- err
	}()
	waitStats("the slow solve on the worker", func(st PoolStats) bool { return st.Submitted == 1 && st.QueueLen == 0 })
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := p.Submit(context.Background(), inst, Spec{Algo: AlgoGreedy, Seed: 1})
			errs <- err
		}()
	}
	waitStats("two queued requests", func(st PoolStats) bool { return st.QueueLen == 2 })
	cancelSlow()
	<-slowDone
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("queued request %d: %v", i, err)
		}
	}
}

// TestShardedCacheEvictions pins the result LRU's accounting: occupancy
// equals the configured bound once it is full, and every displaced entry
// is counted as an eviction.
func TestShardedCacheEvictions(t *testing.T) {
	const maxResults = 8
	c := NewCache(CacheConfig{MaxResults: maxResults})
	const inserts = 100
	for i := 0; i < inserts; i++ {
		key := fmt.Sprintf("result-%d", i)
		c.storeResult(key, &Result{Size: i})
	}
	st := c.Stats()
	if st.Results != maxResults {
		t.Fatalf("results resident = %d, want %d", st.Results, maxResults)
	}
	if st.ResultEvictions != int64(inserts-st.Results) {
		t.Fatalf("evictions = %d, want %d (inserts %d - resident %d)",
			st.ResultEvictions, inserts-st.Results, inserts, st.Results)
	}
	// Resident entries must still be retrievable; evicted ones must miss.
	hits, misses := 0, 0
	for i := 0; i < inserts; i++ {
		if _, ok := c.lookupResult(fmt.Sprintf("result-%d", i)); ok {
			hits++
		} else {
			misses++
		}
	}
	if hits != st.Results {
		t.Fatalf("lookup hits = %d, want %d", hits, st.Results)
	}
	st = c.Stats()
	if st.ResultHits != int64(hits) || st.ResultMisses != int64(misses) {
		t.Fatalf("hit/miss counters %d/%d, want %d/%d", st.ResultHits, st.ResultMisses, hits, misses)
	}
}

// TestShardedCacheSharesInstances: the same graph interned through many
// concurrent sessions resolves to one shared *Instance.
func TestShardedCacheSharesInstances(t *testing.T) {
	_, _, payload := testInstancePayload(t)
	c := NewCache(CacheConfig{})
	const goroutines = 16
	insts := make([]*Instance, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := NewSession(c)
			inst, err := s.Instance(payload)
			if err != nil {
				t.Errorf("session %d: %v", i, err)
				return
			}
			insts[i] = inst
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := 1; i < goroutines; i++ {
		if insts[i].Key != insts[0].Key {
			t.Fatalf("session %d interned a different instance key", i)
		}
	}
	if st := c.Stats(); st.Instances != 1 {
		t.Fatalf("instances resident = %d, want 1", st.Instances)
	}
}
