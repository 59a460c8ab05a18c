package stream

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/rng"
)

// countCtx cancels after `limit` Err calls — the same deterministic
// checkpoint-counting harness internal/engine uses, so the streaming
// drivers are pinned to the identical cancellation contract: every pass
// boundary consults ctx.Err exactly once.
type countCtx struct {
	calls atomic.Int64
	limit int64
}

func (c *countCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countCtx) Done() <-chan struct{}       { return nil }
func (c *countCtx) Value(any) any               { return nil }
func (c *countCtx) Err() error {
	if c.calls.Add(1) > c.limit {
		return context.Canceled
	}
	return nil
}

// TestStreamCancelSemantics: for both drivers, a probe run counts the pass
// boundaries, then cancelling at the first, a middle, and the final
// checkpoint must return context.Canceled with no result — and an
// uncancelled re-run must be bit-identical to a never-cancelled run.
func TestStreamCancelSemantics(t *testing.T) {
	r := rng.New(19)
	g := graph.GnmWeighted(60, 500, 1, 8, r.Split())
	b := graph.UniformBudgets(60, 2)
	params := Params{Eps: 0.5}

	for _, tc := range []struct {
		name string
		run  func(ctx context.Context) (*Result, error)
	}{
		{"unweighted", func(ctx context.Context) (*Result, error) {
			return OnePlusEpsCtx(ctx, NewSliceStream(g), g.N, b, params, rng.New(4))
		}},
		{"weighted", func(ctx context.Context) (*Result, error) {
			return OnePlusEpsWeightedCtx(ctx, NewSliceStream(g), g.N, b, params, rng.New(4))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := tc.run(context.Background())
			if err != nil {
				t.Fatal(err)
			}

			probe := &countCtx{limit: math.MaxInt64}
			if _, err := tc.run(probe); err != nil {
				t.Fatal(err)
			}
			checkpoints := probe.calls.Load()
			if checkpoints < 3 {
				t.Fatalf("driver passed only %d cancellation checkpoints; ctx is not threaded through the passes", checkpoints)
			}

			for _, limit := range []int64{1, checkpoints / 2, checkpoints - 1} {
				cc := &countCtx{limit: limit}
				res, err := tc.run(cc)
				if !errors.Is(err, context.Canceled) || res != nil {
					t.Fatalf("cancel after %d/%d checkpoints: got (%v, %v), want (nil, context.Canceled)",
						limit, checkpoints, res, err)
				}
			}

			// Cancellation must leave nothing behind that changes a fresh
			// run (the drivers share no state, but pin it anyway).
			again, err := tc.run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if again.Size != ref.Size || again.Weight != ref.Weight || again.Passes != ref.Passes {
				t.Fatalf("re-run diverged: %+v vs %+v", again, ref)
			}
			for i := range ref.EdgeIDs {
				if again.EdgeIDs[i] != ref.EdgeIDs[i] {
					t.Fatalf("re-run diverged at edge %d", i)
				}
			}
		})
	}
}

// TestStreamCtxVariantsMatchPlain: a run under a live, cancellable context
// must be bit-identical to one under context.Background — the pass-boundary
// checks never affect the output.
func TestStreamCtxVariantsMatchPlain(t *testing.T) {
	r := rng.New(23)
	g := graph.GnmWeighted(50, 400, 1, 6, r.Split())
	b := graph.UniformBudgets(50, 2)
	params := Params{Eps: 0.5}

	plain, err := OnePlusEpsWeightedCtx(context.Background(), NewSliceStream(g), g.N, b, params, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	withCtx, err := OnePlusEpsWeightedCtx(ctx, NewSliceStream(g), g.N, b, params, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Size != withCtx.Size || plain.Weight != withCtx.Weight || plain.Passes != withCtx.Passes {
		t.Fatalf("ctx variant diverged: %+v vs %+v", withCtx, plain)
	}
	for i := range plain.EdgeIDs {
		if plain.EdgeIDs[i] != withCtx.EdgeIDs[i] {
			t.Fatalf("ctx variant diverged at edge %d", i)
		}
	}
}
