package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/augment"
	"repro/internal/exact"
	"repro/internal/frac"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/loadgen"
	"repro/internal/rng"
	"repro/internal/weighted"
)

// TestCertifiedSolvesAreOptimal runs the max and maxw pipelines on small
// instances of the four load-harness families and compares them with the
// exact optimum (flow on bipartite graphs, enumeration otherwise). Where a
// driver stopped on its certificate, the matching must be optimal. On a
// bipartite graph a driver that ends at the optimum must have stopped on
// its certificate (the families' weights are continuous, so no ties).
func TestCertifiedSolvesAreOptimal(t *testing.T) {
	fams := []loadgen.FamilySpec{
		{Family: "assignment", Count: 4, N: 16, M: 40},
		{Family: "skew", Count: 4, N: 12, M: 24},
		{Family: "gnm", Count: 4, N: 14, M: 28},
		{Family: "powerlaw", Count: 4, N: 18, M: 30},
	}
	items, err := loadgen.BuildCorpus(1, fams)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	certified := map[string]int{}
	for i, it := range items {
		g, b, err := graphio.DecodeBinary(it.Payload)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s (n=%d m=%d)", it.Name, g.N, g.M())
		optSize, optWeight := exactOptima(t, g, b)
		_, bipartite := g.IsBipartite()
		seed := int64(i + 1)

		mx, err := OnePlusEpsUnweightedCtx(ctx, g, b, 0.25, frac.PracticalParams(), augment.DefaultParams(0.25), rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		switch atOpt := mx.M.Size() == optSize; {
		case mx.Certified && !atOpt:
			t.Errorf("max %s: certified size %d, optimum %d", name, mx.M.Size(), optSize)
		case bipartite && atOpt && !mx.Certified:
			t.Errorf("max %s: bipartite optimum reached but not certified", name)
		case mx.Certified:
			certified["max"]++
		}

		mw, err := OnePlusEpsWeightedCtx(ctx, g, b, 0.25, weighted.DefaultParams(0.25), rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		switch atOpt := math.Abs(mw.M.Weight()-optWeight) <= 1e-9*optWeight; {
		case mw.Certified && !atOpt:
			t.Errorf("maxw %s: certified weight %v, optimum %v", name, mw.M.Weight(), optWeight)
		case bipartite && atOpt && !mw.Certified:
			t.Errorf("maxw %s: bipartite optimum reached but not certified", name)
		case mw.Certified:
			certified["maxw"]++
		}
	}
	if certified["max"] == 0 || certified["maxw"] == 0 {
		t.Fatalf("vacuous: certified solves %v", certified)
	}
	t.Logf("certified solves of %d: %v", len(items), certified)
}

// exactOptima returns the maximum size and maximum weight of a b-matching.
func exactOptima(t *testing.T, g *graph.Graph, b graph.Budgets) (int, float64) {
	t.Helper()
	if _, ok := g.IsBipartite(); !ok {
		return exact.BruteForce(g, b)
	}
	size, err := exact.MaxBipartite(g, b)
	if err != nil {
		t.Fatal(err)
	}
	weight, err := exact.MaxWeightBipartite(g, b)
	if err != nil {
		t.Fatal(err)
	}
	return size, weight
}
