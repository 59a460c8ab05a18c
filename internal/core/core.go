// Package core wires the substrates into the paper's three headline
// results:
//
//   - ConstApproxCtx — Theorem 3.1: Θ(1)-approximate unweighted b-matching
//     in O(log log d̄) MPC compression steps (FullMPC → Lemma 3.3 rounding
//     → greedy fill).
//   - OnePlusEpsUnweightedCtx — Theorem 4.1: (1+ε)-approximate unweighted
//     b-matching (ConstApproxCtx, then Section 4 augmentation).
//   - OnePlusEpsWeightedCtx — Theorem 5.1: (1+ε)-approximate weighted
//     b-matching (greedy start, then Section 5 augmentation with conflict
//     resolution).
//
// Each takes a context that is threaded into every driver below it; a
// cancelled solve returns ctx's error and no partial result.
package core

import (
	"context"

	"repro/internal/augment"
	"repro/internal/frac"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/rng"
	"repro/internal/round"
	"repro/internal/weighted"
)

// ConstApproxResult reports the Theorem 3.1 pipeline's output and
// measurements.
type ConstApproxResult struct {
	M *matching.BMatching
	// Frac carries the FullMPC measurements (compression steps, MPC rounds,
	// machine loads, per-iteration degree series).
	Frac *frac.FullResult
	// FracValue is Σx of the 0.05-tight fractional solution.
	FracValue float64
	// DualBound certifies OPT ≤ DualBound (Lemma 3.3 duality), so the
	// returned matching is at least |M|/DualBound-approximate — a
	// per-instance certificate, not just an asymptotic promise.
	DualBound float64
}

// ConstApproxCtx runs the Theorem 3.1 pipeline. ctx is threaded into the
// FullMPC compression loop, the simulator's superstep boundaries, and the
// rounding repeats.
func ConstApproxCtx(ctx context.Context, g *graph.Graph, b graph.Budgets, params frac.MPCParams, r *rng.RNG) (*ConstApproxResult, error) {
	if err := b.Validate(g); err != nil {
		return nil, err
	}
	p := frac.BMatchingProblem(g, b)
	full, err := p.FullMPCCtx(ctx, params, r.Split())
	if err != nil {
		return nil, err
	}
	rp := round.DefaultParams()
	rp.Workers = params.Workers
	m, err := round.RoundCtx(ctx, g, b, full.X, rp, r.Split())
	if err != nil {
		return nil, err
	}
	// The sampling intentionally leaves constant-factor slack; greedy fill
	// recovers most of it and cannot hurt.
	round.GreedyFill(m, false)
	return &ConstApproxResult{
		M:         m,
		Frac:      full,
		FracValue: frac.Value(full.X),
		DualBound: p.DualBound(full.X, 0.05),
	}, nil
}

// OnePlusEpsUnweightedCtx runs the Theorem 4.1 pipeline: the Θ(1) MPC
// start followed by layered-graph augmentation until (1+ε)-optimality.
// ctx is threaded through both stages (MPC start and augmentation sweeps).
func OnePlusEpsUnweightedCtx(ctx context.Context, g *graph.Graph, b graph.Budgets, eps float64, mpcParams frac.MPCParams, augParams augment.Params, r *rng.RNG) (*augment.Result, error) {
	start, err := ConstApproxCtx(ctx, g, b, mpcParams, r.Split())
	if err != nil {
		return nil, err
	}
	if augParams.Eps <= 0 {
		augParams.Eps = eps
	}
	if augParams.Workers == 0 {
		augParams.Workers = mpcParams.Workers
	}
	return augment.OnePlusEpsCtx(ctx, g, b, start.M, augParams, r.Split())
}

// OnePlusEpsWeightedCtx runs the Theorem 5.1 pipeline, with ctx checked at
// every driver round.
func OnePlusEpsWeightedCtx(ctx context.Context, g *graph.Graph, b graph.Budgets, eps float64, params weighted.Params, r *rng.RNG) (*weighted.Result, error) {
	if err := b.Validate(g); err != nil {
		return nil, err
	}
	if params.Eps <= 0 {
		params.Eps = eps
	}
	return weighted.OnePlusEpsWeightedCtx(ctx, g, b, nil, params, r.Split())
}
