package frac

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Lemma 3.7 shape: values never exceed their initialization times 2^T.
func TestValueGrowthBoundedByDoubling(t *testing.T) {
	p := gnmProblem(100, 900, 2, 400)
	x0 := initialValues(p, p.G.AvgDeg())
	for _, T := range []int{1, 4, 8} {
		x := sequential(t, p, T, nil, rng.New(int64(T)))
		for e := range x {
			if x[e] > x0[e]*math.Pow(2, float64(T))+1e-12 {
				t.Fatalf("T=%d edge %d: %v exceeds x0·2^T = %v", T, e, x[e], x0[e]*math.Pow(2, float64(T)))
			}
			if x[e] < x0[e]-1e-12 {
				t.Fatalf("T=%d edge %d: value decreased below initialization", T, e)
			}
		}
	}
}

// E_loose is antitone in progress: adding rounds can only shrink it.
func TestLooseSetShrinksWithRounds(t *testing.T) {
	p := gnmProblem(120, 1000, 1, 401)
	r := rng.New(7)
	th := NewThresholds(p, 20, r.Split())
	prev := math.MaxInt
	for _, T := range []int{0, 3, 6, 9, 12, 15} {
		x := sequential(t, p, T, th, r.Split())
		loose := len(eLoose(p, x, 0.2))
		if loose > prev {
			t.Fatalf("T=%d: loose set grew from %d to %d", T, prev, loose)
		}
		prev = loose
	}
}

// V_loose/E_loose are monotone in α by definition.
func TestLoosenessMonotoneInAlpha(t *testing.T) {
	f := func(seed int64) bool {
		r := rng.New(seed)
		g := graph.Gnm(30, 100, r.Split())
		p := BMatchingProblem(g, graph.RandomBudgets(30, 1, 3, r.Split()))
		x := sequential(t, p, 4, nil, r.Split())
		lo := len(eLoose(p, x, 0.05))
		hi := len(eLoose(p, x, 0.2))
		return lo <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestInitialValuesUnclampedLarger(t *testing.T) {
	// Without the clamp, low-degree vertices get values at least as large.
	p := gnmProblem(100, 2000, 2, 402) // d̄ = 40
	a := initialValues(p, p.G.AvgDeg())
	b := NewView[float64](p).initialValuesUnclampedInto(make([]float64, p.G.M()), make([]float64, p.G.N))
	for e := range a {
		if b[e] < a[e]-1e-12 {
			t.Fatalf("edge %d: unclamped %v < clamped %v", e, b[e], a[e])
		}
	}
	// And strictly larger somewhere (some vertex has degree < d̄).
	strictly := false
	for e := range a {
		if b[e] > a[e]+1e-12 {
			strictly = true
			break
		}
	}
	if !strictly {
		t.Fatal("unclamped init identical to clamped — test instance degenerate")
	}
	// Still feasible.
	if err := p.CheckFeasibleTol(b, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestOneRoundMPCZeroBudgets(t *testing.T) {
	r := rng.New(8)
	g := graph.Gnm(50, 400, r.Split())
	b := make([]float64, 50) // all zero
	re := make([]float64, g.M())
	for i := range re {
		re[i] = 1
	}
	p, err := NewProblem(g, b, re)
	if err != nil {
		t.Fatal(err)
	}
	res := oneRoundRun(t, p, PracticalParams(), nil, r.Split())
	for e, xe := range res.X {
		if xe != 0 {
			t.Fatalf("zero budgets produced x[%d] = %v", e, xe)
		}
	}
}

func TestFullMPCIsolatedVertices(t *testing.T) {
	// Graph with isolated vertices mixed in.
	edges := []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}}
	g := graph.MustNew(10, edges)
	p := BMatchingProblem(g, graph.UniformBudgets(10, 1))
	res := fullMPCRun(t, p, PracticalParams(), rng.New(9))
	if !res.Converged {
		t.Fatal("did not converge with isolated vertices")
	}
	if err := p.CheckFeasibleTol(res.X, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialParallelEdges(t *testing.T) {
	// Multigraph: two parallel edges between the same endpoints.
	g := graph.MustNew(2, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 0, V: 1, W: 1}})
	p := BMatchingProblem(g, graph.UniformBudgets(2, 2))
	x := sequential(t, p, TightRounds(2), nil, rng.New(10))
	if err := p.CheckFeasibleTol(x, 1e-9); err != nil {
		t.Fatal(err)
	}
	if !p.IsTight(x, 0.2) {
		t.Fatal("parallel-edge instance not tight")
	}
}

func TestPickTRespectsBounds(t *testing.T) {
	p := MPCParams{TDivisor: 2, MinT: 1}
	if got := p.pickT(4); got != 1 {
		t.Fatalf("pickT(4) = %d, want 1 (floor(2/2)=1)", got)
	}
	paper := PaperParams()
	if got := paper.pickT(1024); got != 0 {
		t.Fatalf("paper pickT(1024) = %d, want 0", got)
	}
}

func TestFullMPCPaperModeConverges(t *testing.T) {
	// Paper constants (T=0 per compression step): the driver must still
	// converge — each step contributes the initialization values and the
	// remaining-capacity recursion shrinks the loose set.
	p := gnmProblem(150, 2000, 2, 403)
	res := fullMPCRun(t, p, PaperParams(), rng.New(11))
	if !res.Converged {
		t.Fatal("paper-mode FullMPC did not converge")
	}
	if !p.IsTight(res.X, 0.05) {
		t.Fatal("paper-mode result not tight")
	}
}
