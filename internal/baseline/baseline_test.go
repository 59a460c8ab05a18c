package baseline

import (
	"context"
	"testing"

	"repro/internal/exact"
	"repro/internal/frac"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/rng"
	"repro/internal/round"
)

func TestGreedyMaximal(t *testing.T) {
	r := rng.New(1)
	g := graph.Gnm(50, 300, r.Split())
	b := graph.RandomBudgets(50, 1, 3, r.Split())
	m := matching.MustNew(g, b)
	round.GreedyFill(m, false)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	for e := int32(0); int(e) < g.M(); e++ {
		if m.CanAdd(e) {
			t.Fatal("greedy result not maximal")
		}
	}
}

func TestGreedyTwoApprox(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := rng.New(seed)
		g := graph.Gnm(8, 12, r.Split())
		b := graph.RandomBudgets(8, 1, 2, r.Split())
		opt, _ := exact.BruteForce(g, b)
		m := matching.MustNew(g, b)
		round.GreedyFill(m, false)
		if 2*m.Size() < opt {
			t.Fatalf("seed %d: greedy %d below half of optimum %d", seed, m.Size(), opt)
		}
	}
}

func TestGreedyWeightedTwoApprox(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := rng.New(seed)
		g := graph.GnmWeighted(8, 12, 0.5, 4, r.Split())
		b := graph.RandomBudgets(8, 1, 2, r.Split())
		_, optW := exact.BruteForce(g, b)
		m, err := GreedyWeightedCtx(context.Background(), g, b)
		if err != nil {
			t.Fatal(err)
		}
		if 2*m.Weight() < optW-1e-9 {
			t.Fatalf("seed %d: weighted greedy %v below half of optimum %v", seed, m.Weight(), optW)
		}
	}
}

func TestUncompressedRoundsAreLogarithmic(t *testing.T) {
	r := rng.New(4)
	g := graph.Gnm(100, 2000, r.Split())
	p := frac.BMatchingProblem(g, graph.UniformBudgets(100, 2))
	res, err := Uncompressed(context.Background(), p, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != frac.TightRounds(g.M()) {
		t.Fatalf("rounds = %d, want %d", res.Rounds, frac.TightRounds(g.M()))
	}
	if err := p.CheckFeasibleTol(res.X, 1e-9); err != nil {
		t.Fatal(err)
	}
	if len(frac.NewView[float64](p).ELoose(res.X, 0.2, 0)) != 0 {
		t.Fatal("uncompressed baseline not tight")
	}
}

func TestGatherConflictResolution(t *testing.T) {
	// Path 0-1-2-3 with the middle edge matched. The augmenting walk
	// 0-1-2-3 and the single-edge walk over edge 2 share edge 2: only the
	// first survives, and the gather machine pays for both in full.
	g := graph.MustNew(4, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1},
	})
	m := matching.MustNew(g, graph.UniformBudgets(4, 1))
	_ = m.Add(1)
	w1 := matching.Walk{EdgeIDs: []int32{0, 1, 2}, Start: 0}
	w2 := matching.Walk{EdgeIDs: []int32{2}, Start: 2}
	kept, words := GatherConflictResolution([]matching.Walk{w1, w2}, m)
	if len(kept) != 1 {
		t.Fatalf("kept %d walks, want 1", len(kept))
	}
	if len(kept[0].EdgeIDs) != 3 {
		t.Fatal("wrong walk kept")
	}
	if words != int64(3+1+1+1) {
		t.Fatalf("machine words = %d", words)
	}
}

func TestGatherRespectsEndpointBudgets(t *testing.T) {
	// Star: two disjoint single-edge walks ending at the hub with hub
	// residual 1 — only one can be kept.
	g := graph.Star(3)
	b := graph.Budgets{1, 1, 1}
	m := matching.MustNew(g, b)
	w1 := matching.Walk{EdgeIDs: []int32{0}, Start: 1}
	w2 := matching.Walk{EdgeIDs: []int32{1}, Start: 2}
	kept, _ := GatherConflictResolution([]matching.Walk{w1, w2}, m)
	if len(kept) != 1 {
		t.Fatalf("kept %d walks at hub with residual 1, want 1", len(kept))
	}
}

func TestIIMaximalProducesMaximal(t *testing.T) {
	r := rng.New(21)
	g := graph.Gnm(200, 2000, r.Split())
	b := graph.RandomBudgets(200, 1, 3, r.Split())
	res := IIMaximal(g, b, 0, r.Split())
	if err := res.M.Validate(); err != nil {
		t.Fatal(err)
	}
	for e := int32(0); int(e) < g.M(); e++ {
		if res.M.CanAdd(e) {
			t.Fatal("II result not maximal")
		}
	}
}

func TestIIMaximalRoundsLogarithmic(t *testing.T) {
	// O(log n) rounds in expectation: allow a generous constant.
	for _, n := range []int{100, 400, 1600} {
		r := rng.New(int64(22 + n))
		g := graph.Gnm(n, n*8, r.Split())
		b := graph.UniformBudgets(n, 2)
		res := IIMaximal(g, b, 0, r.Split())
		logN := 0
		for x := n; x > 1; x /= 2 {
			logN++
		}
		if res.Rounds > 10*logN {
			t.Fatalf("n=%d: %d rounds exceeds 10·log n = %d", n, res.Rounds, 10*logN)
		}
	}
}

func TestIIMaximalTwoApprox(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		r := rng.New(seed)
		g := graph.Gnm(8, 13, r.Split())
		b := graph.RandomBudgets(8, 1, 2, r.Split())
		opt, _ := exact.BruteForce(g, b)
		res := IIMaximal(g, b, 0, r.Split())
		if 2*res.M.Size() < opt {
			t.Fatalf("seed %d: II size %d below half of %d", seed, res.M.Size(), opt)
		}
	}
}
