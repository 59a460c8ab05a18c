package core

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/augment"
	"repro/internal/exact"
	"repro/internal/frac"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/weighted"
)

func TestConstApproxPipeline(t *testing.T) {
	r := rng.New(1)
	g := graph.Gnm(300, 6000, r.Split())
	b := graph.RandomBudgets(300, 1, 4, r.Split())
	res, err := ConstApproxCtx(context.Background(), g, b, frac.PracticalParams(), r.Split())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.M.Validate(); err != nil {
		t.Fatal(err)
	}
	if !res.Frac.Converged {
		t.Fatal("fractional solve did not converge")
	}
	if res.FracValue <= 0 || res.DualBound < res.FracValue-1e-9 {
		t.Fatalf("certificate inverted: Σx=%v dual=%v", res.FracValue, res.DualBound)
	}
	// |M| ≤ OPT ≤ DualBound.
	if float64(res.M.Size()) > res.DualBound+1e-9 {
		t.Fatalf("matching %d exceeds its own upper bound %v", res.M.Size(), res.DualBound)
	}
}

func TestConstApproxAgainstExactBipartite(t *testing.T) {
	r := rng.New(2)
	g := graph.Bipartite(60, 60, 700, r.Split())
	b := graph.RandomBudgets(120, 1, 3, r.Split())
	res, err := ConstApproxCtx(context.Background(), g, b, frac.PracticalParams(), r.Split())
	if err != nil {
		t.Fatal(err)
	}
	opt, err := exact.MaxBipartite(g, b)
	if err != nil {
		t.Fatal(err)
	}
	// Greedy fill makes the output maximal, so ratio ≥ 1/2 is guaranteed;
	// the pipeline typically does much better.
	if 2*res.M.Size() < opt {
		t.Fatalf("ratio below maximality guarantee: %d vs opt %d", res.M.Size(), opt)
	}
}

func TestConstApproxRejectsInvalidBudgets(t *testing.T) {
	g := graph.Path(4)
	if _, err := ConstApproxCtx(context.Background(), g, graph.Budgets{1, 1}, frac.PracticalParams(), rng.New(1)); err == nil {
		t.Fatal("short budgets accepted")
	}
}

func TestConstApproxEmptyGraph(t *testing.T) {
	g := graph.MustNew(10, nil)
	res, err := ConstApproxCtx(context.Background(), g, graph.UniformBudgets(10, 2), frac.PracticalParams(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.M.Size() != 0 {
		t.Fatal("nonempty matching on empty graph")
	}
}

func TestOnePlusEpsUnweightedPipeline(t *testing.T) {
	r := rng.New(3)
	g := graph.Bipartite(25, 25, 250, r.Split())
	b := graph.RandomBudgets(50, 1, 2, r.Split())
	opt, err := exact.MaxBipartite(g, b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := OnePlusEpsUnweightedCtx(context.Background(), g, b, 0.25, frac.PracticalParams(),
		augment.DefaultParams(0.25), r.Split())
	if err != nil {
		t.Fatal(err)
	}
	if float64(res.M.Size()) < float64(opt)/1.25 {
		t.Fatalf("pipeline size %d vs opt %d", res.M.Size(), opt)
	}
	// The Θ(1) start should leave the augmentation phase little to do:
	// SizeStart is already maximal, SizeEnd ≥ SizeStart.
	if res.SizeEnd < res.SizeStart {
		t.Fatal("augmentation decreased size")
	}
}

func TestOnePlusEpsWeightedPipeline(t *testing.T) {
	r := rng.New(4)
	g := graph.BipartiteWeighted(15, 15, 120, 1, 8, r.Split())
	b := graph.RandomBudgets(30, 1, 2, r.Split())
	optW, err := exact.MaxWeightBipartite(g, b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := OnePlusEpsWeightedCtx(context.Background(), g, b, 0.25, weighted.DefaultParams(0.25), r.Split())
	if err != nil {
		t.Fatal(err)
	}
	if res.M.Weight() < optW/1.3 {
		t.Fatalf("pipeline weight %v vs opt %v", res.M.Weight(), optW)
	}
	if err := res.M.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOnePlusEpsWeightedRejectsInvalidBudgets(t *testing.T) {
	g := graph.Path(4)
	if _, err := OnePlusEpsWeightedCtx(context.Background(), g, graph.Budgets{-1, 1, 1, 1}, 0.5,
		weighted.DefaultParams(0.5), rng.New(1)); err == nil {
		t.Fatal("negative budget accepted")
	}
}

// Property: the full unweighted pipeline always produces a valid matching
// no smaller than greedy's half-guarantee.
func TestPipelineValidityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rng.New(seed)
		g := graph.Gnm(40, 200, r.Split())
		b := graph.RandomBudgets(40, 1, 3, r.Split())
		res, err := ConstApproxCtx(context.Background(), g, b, frac.PracticalParams(), r.Split())
		if err != nil {
			return false
		}
		return res.M.Validate() == nil && float64(res.M.Size()) <= res.DualBound+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Determinism across the whole pipeline.
func TestPipelineDeterminism(t *testing.T) {
	g := graph.Gnm(100, 1500, rng.New(9))
	b := graph.UniformBudgets(100, 2)
	a, err := ConstApproxCtx(context.Background(), g, b, frac.PracticalParams(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	c, err := ConstApproxCtx(context.Background(), g, b, frac.PracticalParams(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	ae, ce := a.M.Edges(), c.M.Edges()
	if len(ae) != len(ce) {
		t.Fatal("pipeline nondeterministic (size)")
	}
	for i := range ae {
		if ae[i] != ce[i] {
			t.Fatal("pipeline nondeterministic (edges)")
		}
	}
}
