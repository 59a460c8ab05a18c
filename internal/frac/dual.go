// The dual side of the b-matching LP (Section 3.8). The dual is a
// fractional weighted vertex cover with edge slack:
//
//	minimize   Σ_v b_v·y_v + Σ_e r_e·z_e
//	subject to y_u + y_v + z_e ≥ 1  for every e = {u,v}
//	           y, z ≥ 0.
//
// Lemma 3.3 builds a 0/1 dual from an α-tight primal solution; this is the
// GJN20 connection the paper's Θ(1) algorithm generalizes, and it yields a
// 3/α-approximate weighted vertex cover as a by-product — exposed here as
// an extension.
package frac

import "fmt"

// Dual is a feasible solution of the dual LP.
type Dual struct {
	Y []float64 // per-vertex
	Z []float64 // per-edge
}

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

// DualFromTight builds the Lemma 3.3 0/1 dual from an α-tight primal x:
// y_v = 1 iff Σ_{e∈E(v)} x_e ≥ α·b_v, z_e = 1 iff x_e ≥ α·r_e. The result
// is feasible whenever x is α-tight, and its objective equals DualBound.
func (p *Problem) DualFromTight(x []float64, alpha float64) Dual {
	ys := NewView[float64](p).VertexSums(make([]float64, p.G.N), x, 0)
	d := Dual{Y: make([]float64, p.G.N), Z: make([]float64, p.G.M())}
	for v := 0; v < p.G.N; v++ {
		if ys[v] >= alpha*p.B[v] {
			d.Y[v] = 1
		}
	}
	for e := range p.G.Edges {
		if x[e] >= alpha*p.R[e] {
			d.Z[e] = 1
		}
	}
	return d
}

// VertexCover returns the weighted vertex-cover view of the dual: the
// vertex set {v : y_v = 1} together with the edges {e : z_e = 1} that the
// cover handles via slack. For the pure b-matching LP (r ≡ 1) on graphs
// where z ≡ 0 the vertex set is a plain vertex cover; in general the pair
// covers every edge. By duality its weight is at least the maximum
// b-matching size and (by Lemma 3.3's charging) at most 3/α times the
// α-tight primal value — the O(1)-approximate weighted vertex cover of
// GJN20 recovered as a by-product.
func (p *Problem) VertexCover(x []float64, alpha float64) (vertices []int32, slackEdges []int32) {
	d := p.DualFromTight(x, alpha)
	for v := 0; v < p.G.N; v++ {
		if d.Y[v] == 1 {
			vertices = append(vertices, int32(v))
		}
	}
	for e := range p.G.Edges {
		if d.Z[e] == 1 {
			slackEdges = append(slackEdges, int32(e))
		}
	}
	return vertices, slackEdges
}

// MultiEdgeProblem returns the LP for the paper's footnote-1 variant where
// an edge may be taken multiple times (the KY09 setting): edge capacities
// are lifted to min(b_u, b_v), which is never binding beyond the vertex
// constraints. The same algorithms (Sequential/OneRoundMPC/FullMPC) apply
// unchanged since they accept arbitrary non-negative r.
func MultiEdgeProblem(p *Problem) *Problem {
	r := make([]float64, p.G.M())
	for e := range p.G.Edges {
		ed := p.G.Edges[e]
		bu, bv := p.B[ed.U], p.B[ed.V]
		if bu < bv {
			r[e] = bu
		} else {
			r[e] = bv
		}
	}
	q, err := NewProblem(p.G, p.B, r)
	if err != nil {
		panic(err) // capacities derived from a valid problem
	}
	return q
}
