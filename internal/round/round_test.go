package round

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/frac"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/rng"
)

func tightSolution(t testing.TB, n, m, b int, seed int64) (*frac.Problem, []float64) {
	r := rng.New(seed)
	g := graph.Gnm(n, m, r.Split())
	p := frac.BMatchingProblem(g, graph.UniformBudgets(n, b))
	return p, mustSequential(t, p, frac.TightRounds(m), r.Split())
}

func mustSequential(t testing.TB, p *frac.Problem, T int, r *rng.RNG) []float64 {
	t.Helper()
	x, err := frac.NewView[float64](p).Sequential(context.Background(), T, nil, r, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func mustRound(t testing.TB, g *graph.Graph, b graph.Budgets, x []float64, p Params, r *rng.RNG) *matching.BMatching {
	t.Helper()
	m, err := RoundCtx(context.Background(), g, b, x, p, r)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSampleProducesValidBMatching(t *testing.T) {
	p, x := tightSolution(t, 100, 800, 2, 1)
	b := graph.UniformBudgets(100, 2)
	m := Sample(p.G, b, x, 4, rng.New(2))
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundSizeWithinLemmaBound(t *testing.T) {
	// Lemma 3.3: E|M| ≥ Σx/64. With 16 repeats the best trial should land
	// comfortably above half that.
	p, x := tightSolution(t, 200, 3000, 2, 3)
	b := graph.UniformBudgets(200, 2)
	m := mustRound(t, p.G, b, x, DefaultParams(), rng.New(4))
	if float64(m.Size()) < frac.Value(x)/128 {
		t.Fatalf("rounded size %d far below Lemma 3.3 expectation (Σx=%v)", m.Size(), frac.Value(x))
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundRespectsHeterogeneousBudgets(t *testing.T) {
	r := rng.New(5)
	g := graph.Gnm(80, 600, r.Split())
	b := graph.RandomBudgets(80, 0, 4, r.Split())
	p := frac.BMatchingProblem(g, b)
	x := mustSequential(t, p, frac.TightRounds(g.M()), r.Split())
	m := mustRound(t, g, b, x, DefaultParams(), r.Split())
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N; v++ {
		if b[v] == 0 && m.MatchedDeg(int32(v)) != 0 {
			t.Fatalf("zero-budget vertex %d matched", v)
		}
	}
}

func TestGreedyFillMaximality(t *testing.T) {
	p, x := tightSolution(t, 60, 400, 2, 6)
	b := graph.UniformBudgets(60, 2)
	m := mustRound(t, p.G, b, x, DefaultParams(), rng.New(7))
	GreedyFill(m, false)
	for e := int32(0); int(e) < p.G.M(); e++ {
		if m.CanAdd(e) {
			t.Fatalf("edge %d still addable after GreedyFill", e)
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyFillWeightedPrefersHeavy(t *testing.T) {
	g := graph.MustNew(3, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 9},
	})
	b := graph.UniformBudgets(3, 1)
	x := []float64{0, 0}
	m := mustRound(t, g, b, x, DefaultParams(), rng.New(1))
	GreedyFill(m, true)
	if !m.Contains(1) {
		t.Fatal("weighted fill skipped the heavy edge")
	}
}

func TestRoundDefaultsApplied(t *testing.T) {
	p, x := tightSolution(t, 40, 200, 1, 8)
	b := graph.UniformBudgets(40, 1)
	m := mustRound(t, p.G, b, x, Params{}, rng.New(9)) // zero params → defaults
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Property: rounding any feasible fractional solution yields a valid
// b-matching.
func TestRoundValidityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rng.New(seed)
		g := graph.Gnm(30, 120, r.Split())
		b := graph.RandomBudgets(30, 1, 3, r.Split())
		p := frac.BMatchingProblem(g, b)
		x := mustSequential(t, p, 6, r.Split())
		m := Sample(g, b, x, 4, r.Split())
		return m.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
