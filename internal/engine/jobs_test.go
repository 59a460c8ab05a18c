package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/rng"
)

func newTestJobs(tb testing.TB, poolCfg PoolConfig, cfg JobsConfig) (*Jobs, *Pool, *Instance) {
	tb.Helper()
	p := NewPool(poolCfg)
	j := NewJobs(p, cfg)
	tb.Cleanup(func() {
		j.Close()
		p.Close()
	})
	_, _, payload := testInstancePayload(tb)
	inst, err := p.Decode(payload)
	if err != nil {
		tb.Fatal(err)
	}
	return j, p, inst
}

// waitTerminal polls until the job settles, returning its final status.
func waitTerminal(tb testing.TB, j *Jobs, id string) JobStatus {
	tb.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := j.Status(id)
		if err != nil {
			tb.Fatalf("status %s: %v", id, err)
		}
		if st.State.terminal() {
			return st
		}
		if time.Now().After(deadline) {
			tb.Fatalf("job %s never settled: %+v", id, st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJobLifecycle pins the happy path: submit → (progress becomes
// visible) → done → result identical to a synchronous Pool.Submit of the
// same (instance, Spec).
func TestJobLifecycle(t *testing.T) {
	j, p, inst := newTestJobs(t, PoolConfig{Workers: 2}, JobsConfig{})
	spec := Spec{Algo: AlgoMaxWeight, Seed: 3, NoCache: true}

	st, err := j.Submit(inst, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.State.terminal() {
		t.Fatalf("fresh job in unexpected state: %+v", st)
	}

	// Progress must become visible while the job runs: the checkpoint
	// odometer climbs past zero before (or by the time) the job settles.
	var sawProgress bool
	for i := 0; i < 30000; i++ {
		cur, err := j.Status(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Progress.Checkpoints > 0 {
			sawProgress = true
			break
		}
		if cur.State.terminal() {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}

	final := waitTerminal(t, j, st.ID)
	if final.State != JobDone {
		t.Fatalf("job ended %s (%s), want done", final.State, final.Error)
	}
	if !sawProgress && final.Progress.Checkpoints == 0 {
		t.Fatal("no checkpoint progress was ever observable")
	}
	res, err := j.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Same request through the synchronous path: bit-identical.
	sync, err := p.Submit(context.Background(), inst, spec)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, sync, res)

	// The async result stays retrievable (TTL default is minutes).
	if _, err := j.Result(st.ID); err != nil {
		t.Fatalf("second result fetch failed: %v", err)
	}
	// The registry counts the async job only; the synchronous solve
	// never entered it.
	if s := j.Stats(); s.Done != 1 || s.Submitted != 1 || s.Active != 1 {
		t.Fatalf("stats = %+v, want the one async job submitted, done and resident", s)
	}
}

// TestJobErrorPaths is the table of the v2 lifecycle's refusals at the
// registry level: unknown ids, result-before-done, double-cancel, and
// cancel-after-done.
func TestJobErrorPaths(t *testing.T) {
	j, _, inst := newTestJobs(t, PoolConfig{Workers: 1}, JobsConfig{})

	t.Run("unknown job", func(t *testing.T) {
		if _, err := j.Status("nope"); !errors.Is(err, ErrUnknownJob) {
			t.Fatalf("Status: %v, want ErrUnknownJob", err)
		}
		if _, err := j.Result("nope"); !errors.Is(err, ErrUnknownJob) {
			t.Fatalf("Result: %v, want ErrUnknownJob", err)
		}
		if err := j.Cancel("nope"); !errors.Is(err, ErrUnknownJob) {
			t.Fatalf("Cancel: %v, want ErrUnknownJob", err)
		}
	})

	t.Run("result before done, then double cancel", func(t *testing.T) {
		st, err := j.Submit(inst, Spec{Algo: AlgoMaxWeight, Seed: 9, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Result(st.ID); !errors.Is(err, ErrJobNotDone) {
			t.Fatalf("early Result: %v, want ErrJobNotDone", err)
		}
		if err := j.Cancel(st.ID); err != nil {
			t.Fatalf("first cancel: %v", err)
		}
		if err := j.Cancel(st.ID); !errors.Is(err, ErrJobFinished) {
			t.Fatalf("second cancel: %v, want ErrJobFinished", err)
		}
		final := waitTerminal(t, j, st.ID)
		if final.State != JobCanceled {
			t.Fatalf("cancelled job ended %s", final.State)
		}
		if _, err := j.Result(st.ID); !errors.Is(err, context.Canceled) {
			t.Fatalf("Result of cancelled job: %v, want context.Canceled", err)
		}
	})

	t.Run("cancel after done", func(t *testing.T) {
		st, err := j.Submit(inst, Spec{Algo: AlgoGreedy, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j, st.ID)
		if err := j.Cancel(st.ID); !errors.Is(err, ErrJobFinished) {
			t.Fatalf("cancel after done: %v, want ErrJobFinished", err)
		}
	})
}

// TestJobTTLEviction: a finished job must disappear after its TTL — lazily
// on access and in bulk on the next submit.
func TestJobTTLEviction(t *testing.T) {
	j, _, inst := newTestJobs(t, PoolConfig{Workers: 1}, JobsConfig{TTL: 30 * time.Millisecond})

	st, err := j.Submit(inst, Spec{Algo: AlgoGreedy, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j, st.ID)
	if _, err := j.Result(st.ID); err != nil {
		t.Fatalf("result within TTL: %v", err)
	}
	time.Sleep(60 * time.Millisecond)
	if _, err := j.Status(st.ID); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("status after TTL: %v, want ErrUnknownJob", err)
	}
	if s := j.Stats(); s.Expired < 1 {
		t.Fatalf("eviction not counted: %+v", s)
	}
}

// TestJobMaxJobs pins the admission bound: with MaxJobs=1 and a slow job
// resident, the second submit bounces with ErrTooManyJobs; once the
// resident job has settled and outlived its TTL, the next submit evicts
// it and takes the slot.
func TestJobMaxJobs(t *testing.T) {
	const ttl = 200 * time.Millisecond
	j, _, inst := newTestJobs(t, PoolConfig{Workers: 1}, JobsConfig{MaxJobs: 1, TTL: ttl})

	slow := Spec{Algo: AlgoMaxWeight, Seed: 1, NoCache: true}
	st, err := j.Submit(inst, slow)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Submit(inst, Spec{Algo: AlgoGreedy, Seed: 2}); !errors.Is(err, ErrTooManyJobs) {
		t.Fatalf("over-limit submit: %v, want ErrTooManyJobs", err)
	}
	if err := j.Cancel(st.ID); err != nil && !errors.Is(err, ErrJobFinished) {
		t.Fatal(err)
	}
	waitTerminal(t, j, st.ID)
	time.Sleep(2 * ttl)
	st2, err := j.Submit(inst, Spec{Algo: AlgoGreedy, Seed: 2})
	if err != nil {
		t.Fatalf("submit after expiry: %v", err)
	}
	if final := waitTerminal(t, j, st2.ID); final.State != JobDone {
		t.Fatalf("replacement job ended %s (%s)", final.State, final.Error)
	}
}

// TestJobQueueBurst: async jobs must ride out a queue burst instead of
// failing — 12 jobs against a 1-worker, depth-1 queue all complete.
func TestJobQueueBurst(t *testing.T) {
	j, _, inst := newTestJobs(t, PoolConfig{Workers: 1, QueueDepth: 1, BatchMax: 1}, JobsConfig{})

	ids := make([]string, 12)
	for i := range ids {
		st, err := j.Submit(inst, Spec{Algo: AlgoGreedy, Seed: int64(i), NoCache: true})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = st.ID
	}
	for i, id := range ids {
		if final := waitTerminal(t, j, id); final.State != JobDone {
			t.Fatalf("job %d ended %s (%s)", i, final.State, final.Error)
		}
	}
}

// TestJobFracAlgo: the fractional LP solve runs through the job registry
// and returns its certificates in the Result.
func TestJobFracAlgo(t *testing.T) {
	j, _, inst := newTestJobs(t, PoolConfig{Workers: 1}, JobsConfig{})
	st, err := j.Submit(inst, Spec{Algo: AlgoFrac, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, j, st.ID); final.State != JobDone {
		t.Fatalf("frac job ended %s (%s)", final.State, final.Error)
	}
	res, err := j.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.X) == 0 || res.FracValue <= 0 || res.DualBound < res.FracValue-1e-9 {
		t.Fatalf("frac result degenerate: len(X)=%d value=%v dual=%v", len(res.X), res.FracValue, res.DualBound)
	}
}

// TestDirectSolveMatchesSession: the exported direct Solve and the cached
// Session path must return bit-identical solutions — they are the same
// dispatch.
func TestDirectSolveMatchesSession(t *testing.T) {
	r := rng.New(21)
	g, b := graph.ClientServer(120, 8, 5, 3, 20, r.Split())
	for _, algo := range []Algo{AlgoApprox, AlgoMax, AlgoMaxWeight, AlgoGreedy} {
		spec := Spec{Algo: algo, Seed: 6}
		sol, err := Solve(context.Background(), g, b, spec)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		res, err := solveFresh(g, b, spec)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		edges := sol.M.Edges()
		if len(edges) != len(res.Edges) {
			t.Fatalf("%s: direct %d edges, session %d", algo, len(edges), len(res.Edges))
		}
		for i := range edges {
			if edges[i] != res.Edges[i] {
				t.Fatalf("%s: plans diverge at edge %d", algo, i)
			}
		}
	}
}
