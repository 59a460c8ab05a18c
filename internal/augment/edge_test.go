package augment

import (
	"context"
	"testing"

	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/rng"
)

func TestLayeredKZeroFindsFreeFreeEdges(t *testing.T) {
	// K=0 instances look only for length-1 augmentations (free-free edges).
	g := graph.Path(2)
	m := matching.MustNew(g, graph.UniformBudgets(2, 1))
	found := false
	r := rng.New(1)
	for try := 0; try < 50 && !found; try++ {
		L := buildLayeredScratch(m, 0, r.Split(), nil)
		walks := L.growScratch(r.Split(), nil)
		if len(walks) == 1 && len(walks[0].EdgeIDs) == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("K=0 layering never found the free-free edge")
	}
}

func TestDriverZeroBudgetVertices(t *testing.T) {
	r := rng.New(2)
	g := graph.Gnm(20, 60, r.Split())
	b := graph.RandomBudgets(20, 0, 2, r.Split()) // some zeros
	res, err := OnePlusEpsCtx(context.Background(), g, b, nil, Params{Eps: 0.5, RetriesPerK: 2, MaxSweeps: 5, StallSweeps: 2, MaxRetriesPerK: 4}, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.M.Validate(); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N; v++ {
		if b[v] == 0 && res.M.MatchedDeg(int32(v)) != 0 {
			t.Fatalf("zero-budget vertex %d matched", v)
		}
	}
}

func TestDriverEmptyGraph(t *testing.T) {
	g := graph.MustNew(5, nil)
	res, err := OnePlusEpsCtx(context.Background(), g, graph.UniformBudgets(5, 2), nil, DefaultParams(0.5), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.M.Size() != 0 {
		t.Fatal("matching on empty graph")
	}
}

func TestDriverAlreadyOptimalStopsQuickly(t *testing.T) {
	// A perfect matching instance: the driver should terminate without
	// finding (nonexistent) augmentations.
	g := graph.MustNew(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}})
	b := graph.UniformBudgets(4, 1)
	m := matching.MustNew(g, b)
	_ = m.Add(0)
	_ = m.Add(1)
	res, err := OnePlusEpsCtx(context.Background(), g, b, m, Params{Eps: 0.5, RetriesPerK: 2, MaxSweeps: 30, StallSweeps: 2, MaxRetriesPerK: 4}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.WalksApplied != 0 {
		t.Fatalf("applied %d walks on an optimal matching", res.WalksApplied)
	}
	if res.M.Size() != 2 {
		t.Fatal("optimal matching changed")
	}
}

func TestDriverMultigraph(t *testing.T) {
	// Parallel edges: with b=2 at both endpoints, both copies can match.
	g := graph.MustNew(2, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 0, V: 1, W: 1}})
	b := graph.UniformBudgets(2, 2)
	res, err := OnePlusEpsCtx(context.Background(), g, b, nil, DefaultParams(0.5), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.M.Size() != 2 {
		t.Fatalf("multigraph size %d, want 2", res.M.Size())
	}
}

func TestHConstructionWithSharedEdges(t *testing.T) {
	// M and M* overlapping heavily: Mdiff small; the H-walks must still
	// close the gap exactly.
	r := rng.New(6)
	g := graph.Gnm(9, 16, r.Split())
	b := graph.UniformBudgets(9, 2)
	mstar := bruteForceMatching(g, b)
	// Perturb: remove two edges from the optimum to create a small gap.
	m := mstar.Clone()
	removed := 0
	for _, e := range mstar.Edges() {
		if removed == 2 {
			break
		}
		_ = m.Remove(e)
		removed++
	}
	h, err := BuildH(m, mstar)
	if err != nil {
		t.Fatal(err)
	}
	walks := h.AugmentingWalks(m)
	for _, w := range walks {
		if err := w.Apply(m); err != nil {
			t.Fatal(err)
		}
	}
	if m.Size() != mstar.Size() {
		t.Fatalf("gap not closed: %d vs %d", m.Size(), mstar.Size())
	}
}

func TestOnePlusEpsHeterogeneousBudgetsQuality(t *testing.T) {
	// Strongly heterogeneous budgets (the paper's motivating setting).
	r := rng.New(7)
	g, b := graph.ClientServer(60, 6, 5, 2, 15, r.Split())
	opt, err := exact.MaxBipartite(g, b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := OnePlusEpsCtx(context.Background(), g, b, nil, DefaultParams(0.25), r.Split())
	if err != nil {
		t.Fatal(err)
	}
	if float64(res.M.Size()) < float64(opt)/1.25 {
		t.Fatalf("client-server: %d vs opt %d", res.M.Size(), opt)
	}
}

func TestGrowDoesNotReuseFreeSlots(t *testing.T) {
	// A vertex with residual 1 cannot be the endpoint of two walks from one
	// instance. Star with hub residual 1 and K=1 cannot yield 2 walks
	// ending at the hub.
	g := graph.Star(5)
	b := graph.Budgets{1, 1, 1, 1, 1}
	m := matching.MustNew(g, b)
	r := rng.New(8)
	for try := 0; try < 100; try++ {
		L := buildLayeredScratch(m, 1, r.Split(), nil)
		walks := L.growScratch(r.Split(), nil)
		if len(walks) > 1 {
			t.Fatalf("star with hub budget 1 yielded %d walks", len(walks))
		}
		if len(walks) == 1 {
			mc := m.Clone()
			if err := walks[0].Apply(mc); err != nil {
				t.Fatal(err)
			}
		}
	}
}
