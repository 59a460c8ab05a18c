package exact

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/rng"
)

func TestBruteForceTriangle(t *testing.T) {
	g := graph.MustNew(3, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 0, V: 2, W: 3},
	})
	size, weight := BruteForce(g, graph.UniformBudgets(3, 1))
	if size != 1 {
		t.Fatalf("triangle b=1 max size = %d, want 1", size)
	}
	if weight != 3 {
		t.Fatalf("triangle b=1 max weight = %v, want 3", weight)
	}
	size2, weight2 := BruteForce(g, graph.UniformBudgets(3, 2))
	if size2 != 3 || weight2 != 6 {
		t.Fatalf("triangle b=2: size=%d weight=%v, want 3/6", size2, weight2)
	}
}

func TestBruteForceStarBudget(t *testing.T) {
	g := graph.Star(6)
	b := graph.UniformBudgets(6, 1)
	b[0] = 3
	size, _ := BruteForce(g, b)
	if size != 3 {
		t.Fatalf("star hub b=3: size=%d, want 3", size)
	}
}

func TestBruteForceZeroBudget(t *testing.T) {
	g := graph.Path(4)
	b := graph.Budgets{0, 0, 0, 0}
	size, weight := BruteForce(g, b)
	if size != 0 || weight != 0 {
		t.Fatal("zero budgets should give empty matching")
	}
}

func TestDinicMatchesBruteForceBipartite(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rng.New(seed)
		g := graph.Bipartite(4, 4, 8, r.Split())
		b := graph.RandomBudgets(8, 1, 3, r.Split())
		want, _ := BruteForce(g, b)
		got, err := MaxBipartite(g, b)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("seed %d: Dinic=%d brute=%d", seed, got, want)
		}
	}
}

func TestMaxBipartiteRejectsOddCycle(t *testing.T) {
	g := graph.Cycle(5)
	if _, err := MaxBipartite(g, graph.UniformBudgets(5, 1)); err == nil {
		t.Fatal("odd cycle accepted")
	}
	if _, err := MaxWeightBipartite(g, graph.UniformBudgets(5, 1)); err == nil {
		t.Fatal("odd cycle accepted (weighted)")
	}
}

func TestMCMFMatchesBruteForceWeighted(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rng.New(seed)
		g := graph.BipartiteWeighted(4, 4, 8, 0.5, 5, r.Split())
		b := graph.RandomBudgets(8, 1, 3, r.Split())
		_, want := BruteForce(g, b)
		got, err := MaxWeightBipartite(g, b)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("seed %d: MCMF=%v brute=%v", seed, got, want)
		}
	}
}

func TestMCMFDoesNotForceFullFlow(t *testing.T) {
	// Max-weight b-matching may use fewer edges than max-cardinality: here
	// the best single edge beats any two-edge matching... construct: path
	// u-v-w where {u,v} weight 10, {v,w} weight 1, b ≡ 1: optimum takes just
	// {u,v} (weight 10) since both can't coexist.
	g := graph.MustNew(3, []graph.Edge{{U: 0, V: 1, W: 10}, {U: 1, V: 2, W: 1}})
	got, err := MaxWeightBipartite(g, graph.UniformBudgets(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Fatalf("got %v, want 10", got)
	}
}

func TestDinicLargeStarBudget(t *testing.T) {
	g := graph.Star(100)
	b := graph.UniformBudgets(100, 1)
	b[0] = 42
	got, err := MaxBipartite(g, b)
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("star hub: %d, want 42", got)
	}
}

// Property: brute-force size is monotone in budgets, and Dinic agrees on
// bipartite graphs of moderate size (where brute force is infeasible,
// monotonicity plus flow integrality give cross-checks).
func TestBruteForceMonotoneInBudgets(t *testing.T) {
	f := func(seed int64) bool {
		r := rng.New(seed)
		g := graph.Gnm(7, 10, r.Split())
		b1 := graph.RandomBudgets(7, 1, 2, r.Split())
		b2 := make(graph.Budgets, 7)
		for i := range b2 {
			b2[i] = b1[i] + 1
		}
		s1, w1 := BruteForce(g, b1)
		s2, w2 := BruteForce(g, b2)
		return s2 >= s1 && w2 >= w1-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDinicVsGreedyTwiceBound(t *testing.T) {
	// Greedy maximal is a 2-approximation: OPT ≤ 2·|greedy|. Verify on
	// larger bipartite graphs where brute force can't run.
	r := rng.New(77)
	g := graph.Bipartite(40, 40, 400, r.Split())
	b := graph.RandomBudgets(80, 1, 4, r.Split())
	opt, err := MaxBipartite(g, b)
	if err != nil {
		t.Fatal(err)
	}
	// Inline greedy (avoid importing baseline to keep deps acyclic).
	deg := make([]int, g.N)
	greedy := 0
	for _, e := range g.Edges {
		if deg[e.U] < b[e.U] && deg[e.V] < b[e.V] {
			deg[e.U]++
			deg[e.V]++
			greedy++
		}
	}
	if opt > 2*greedy {
		t.Fatalf("2-approximation violated: opt=%d greedy=%d", opt, greedy)
	}
	if greedy > opt {
		t.Fatalf("greedy exceeded optimum: %d > %d", greedy, opt)
	}
}
