package frac

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/rng"
)

func TestDualFromTightIsFeasible(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		p := gnmProblem(80, 600, 2, 100+seed)
		x := sequential(t, p, TightRounds(p.G.M()), nil, rng.New(seed))
		const alpha = 0.2
		if !p.IsTight(x, alpha) {
			t.Fatal("precondition: not tight")
		}
		d := p.DualFromTight(x, alpha)
		if err := p.CheckDualFeasible(d); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got, want := p.DualObjective(d), p.DualBound(x, alpha); math.Abs(got-want) > 1e-9 {
			t.Fatalf("objective %v != DualBound %v", got, want)
		}
	}
}

func TestWeakDuality(t *testing.T) {
	// Any feasible primal value ≤ any feasible dual objective.
	p := gnmProblem(60, 400, 2, 200)
	x := sequential(t, p, TightRounds(p.G.M()), nil, rng.New(1))
	d := p.DualFromTight(x, 0.2)
	if Value(x) > p.DualObjective(d)+1e-9 {
		t.Fatalf("weak duality violated: primal %v > dual %v", Value(x), p.DualObjective(d))
	}
}

func TestCheckDualFeasibleCatchesViolations(t *testing.T) {
	g := graph.Path(3)
	p := BMatchingProblem(g, graph.UniformBudgets(3, 1))
	bad := Dual{Y: []float64{0, 0, 0}, Z: []float64{0, 0}}
	if err := p.CheckDualFeasible(bad); err == nil {
		t.Fatal("all-zero dual accepted")
	}
	neg := Dual{Y: []float64{1, -1, 1}, Z: []float64{1, 1}}
	if err := p.CheckDualFeasible(neg); err == nil {
		t.Fatal("negative dual accepted")
	}
	short := Dual{Y: []float64{1}, Z: []float64{1, 1}}
	if err := p.CheckDualFeasible(short); err == nil {
		t.Fatal("wrong-dimension dual accepted")
	}
}

// The vertex-cover extension: the returned pair covers every edge, and the
// dual objective is within 3/α of the primal (Lemma 3.3's charging).
func TestVertexCoverCoversAllEdges(t *testing.T) {
	p := gnmProblem(70, 500, 2, 300)
	x := sequential(t, p, TightRounds(p.G.M()), nil, rng.New(2))
	const alpha = 0.2
	verts, slack := p.VertexCover(x, alpha)
	inCover := make([]bool, p.G.N)
	for _, v := range verts {
		inCover[v] = true
	}
	slackSet := make(map[int32]bool, len(slack))
	for _, e := range slack {
		slackSet[e] = true
	}
	for e := range p.G.Edges {
		ed := p.G.Edges[e]
		if !inCover[ed.U] && !inCover[ed.V] && !slackSet[int32(e)] {
			t.Fatalf("edge %d uncovered", e)
		}
	}
	// 3/α charging: dual objective ≤ (3/α)·Σx.
	d := p.DualFromTight(x, alpha)
	if p.DualObjective(d) > 3/alpha*Value(x)+1e-9 {
		t.Fatalf("charging bound violated: dual %v > (3/α)·primal %v",
			p.DualObjective(d), 3/alpha*Value(x))
	}
}

func TestMultiEdgeProblemCapacities(t *testing.T) {
	g := graph.Star(4)
	b := graph.Budgets{3, 1, 2, 1}
	p := BMatchingProblem(g, b)
	q := MultiEdgeProblem(p)
	for e := range g.Edges {
		leaf := g.Edges[e].V
		want := math.Min(3, float64(b[leaf]))
		if q.R[e] != want {
			t.Fatalf("edge %d capacity %v, want %v", e, q.R[e], want)
		}
	}
	// The algorithms run unchanged on the lifted capacities.
	x := sequential(t, q, TightRounds(q.G.M()), nil, rng.New(3))
	if err := q.CheckFeasibleTol(x, 1e-9); err != nil {
		t.Fatal(err)
	}
	if !q.IsTight(x, 0.2) {
		t.Fatal("multi-edge variant not tight")
	}
}

// Property: the multi-edge optimum dominates the single-edge optimum
// (relaxing edge capacities can only increase the LP value).
func TestMultiEdgeDominates(t *testing.T) {
	f := func(seed int64) bool {
		r := rng.New(seed)
		g := graph.Gnm(25, 80, r.Split())
		b := graph.RandomBudgets(25, 1, 4, r.Split())
		p := BMatchingProblem(g, b)
		q := MultiEdgeProblem(p)
		xp := sequential(t, p, TightRounds(g.M()), nil, r.Split())
		// Same thresholds not needed; compare dual bounds instead, which
		// certify the optima: OPT_single ≤ dual_single and the multi-edge
		// LP's optimum is ≥ the single-edge optimum because its feasible
		// region is a superset. Spot-check via feasibility of xp in q.
		return q.CheckFeasibleTol(xp, 1e-9) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
