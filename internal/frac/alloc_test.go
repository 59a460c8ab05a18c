package frac

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/scratch"
)

// TestSequentialSteadyStateAllocs pins the steady-state allocation count of
// a warmed sequential solve: with a caller-owned arena, one run allocates
// only its result vector, the threshold closure, and the per-run RNG — the
// per-round buffers (threshold table, activity mask, vertex sums) must all
// come from the arena. Before the arena this was Θ(n) allocations per run
// (one per threshold row); the pin is what keeps future PRs from silently
// reintroducing that.
func TestSequentialSteadyStateAllocs(t *testing.T) {
	r := rng.New(1)
	g := graph.Gnm(2000, 16000, r.Split())
	p := BMatchingProblem(g, graph.UniformBudgets(2000, 2))
	T := TightRounds(g.M())
	w := NewView[float64](p)
	ar := new(scratch.Arena)
	ctx := context.Background()

	// Warm the arena to its steady-state footprint.
	for i := 0; i < 3; i++ {
		if _, err := w.Sequential(ctx, T, nil, rng.New(int64(i)), ar, 0); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := w.Sequential(ctx, T, nil, rng.New(42), ar, 0); err != nil {
			t.Fatal(err)
		}
	})
	// Result slice + threshold closure + rng.New internals ≈ 6; generous
	// headroom below the ~n=2000 a threshold-table regression would cost.
	const budget = 24
	if avg > budget {
		t.Fatalf("warmed Sequential run allocates %.0f objects, budget %d — a per-round buffer is being reallocated", avg, budget)
	}
}

// TestFullMPCSteadyStateAllocs pins the warmed full driver the same way:
// the compression step's index structures and working arrays must come from
// the caller's arena, leaving only per-call escapes (result vectors,
// message batches, simulator state).
func TestFullMPCSteadyStateAllocs(t *testing.T) {
	r := rng.New(2)
	g := graph.CoreFringe(400, 400*32, 1200, 600, r.Split())
	p := BMatchingProblem(g, graph.RandomBudgets(g.N, 1, 4, r.Split()))
	params := PracticalParams()
	params.Workers = 1
	ar := new(scratch.Arena)
	params.Scratch = ar
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		if _, err := p.FullMPCCtx(ctx, params, rng.New(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(5, func() {
		if _, err := p.FullMPCCtx(ctx, params, rng.New(7)); err != nil {
			t.Fatal(err)
		}
	})
	// The pre-arena implementation cost ~3000 allocations on this shape;
	// the warmed driver must stay two orders of magnitude below that.
	const budget = 600
	if avg > budget {
		t.Fatalf("warmed FullMPCCtx run allocates %.0f objects, budget %d", avg, budget)
	}
}

// TestSequentialScratchMatchesSequential pins bit-identical output across
// arena reuse: the same seed through a fresh heap run, a fresh arena run,
// and a heavily reused (dirty) arena run must agree exactly.
func TestSequentialScratchMatchesSequential(t *testing.T) {
	r := rng.New(3)
	g := graph.Gnm(300, 2400, r.Split())
	p := BMatchingProblem(g, graph.RandomBudgets(300, 1, 3, r.Split()))
	T := TightRounds(g.M())
	ctx := context.Background()

	ref := sequential(t, p, T, nil, rng.New(99))
	ar := new(scratch.Arena)
	for trial := 0; trial < 3; trial++ {
		got, err := NewView[float64](p).Sequential(ctx, T, nil, rng.New(99), ar, 0)
		if err != nil {
			t.Fatal(err)
		}
		for e := range ref {
			if got[e] != ref[e] {
				t.Fatalf("trial %d: x[%d] = %v, want %v — arena reuse leaked state", trial, e, got[e], ref[e])
			}
		}
		// Dirty the arena between trials; the next run must be unaffected.
		junk := ar.F64Raw(1024)
		for i := range junk {
			junk[i] = -1
		}
		ar.Reset()
	}
}
