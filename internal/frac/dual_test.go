package frac

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// DualObjective returns Σ b_v·y_v + Σ r_e·z_e.
func (p *Problem) DualObjective(d Dual) float64 {
	var s float64
	for v := 0; v < p.G.N; v++ {
		s += p.B[v] * d.Y[v]
	}
	for e := range p.G.Edges {
		s += p.R[e] * d.Z[e]
	}
	return s
}

// CheckDualFeasible verifies y_u + y_v + z_e ≥ 1 on every edge and
// non-negativity.
func (p *Problem) CheckDualFeasible(d Dual) error {
	const tol = 1e-9
	if len(d.Y) != p.G.N || len(d.Z) != p.G.M() {
		return fmt.Errorf("frac: dual dimensions %d/%d, want %d/%d",
			len(d.Y), len(d.Z), p.G.N, p.G.M())
	}
	for v, y := range d.Y {
		if y < -tol {
			return fmt.Errorf("frac: negative dual y[%d] = %v", v, y)
		}
	}
	for e, z := range d.Z {
		if z < -tol {
			return fmt.Errorf("frac: negative dual z[%d] = %v", e, z)
		}
		ed := p.G.Edges[e]
		if d.Y[ed.U]+d.Y[ed.V]+z < 1-tol {
			return fmt.Errorf("frac: dual constraint violated at edge %d: %v + %v + %v < 1",
				e, d.Y[ed.U], d.Y[ed.V], z)
		}
	}
	return nil
}

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
