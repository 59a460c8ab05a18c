// Package frac implements Section 3 of the paper: the fractional b-matching
// LP, α-tightness (Definition 3.2), the idealized process Sequential
// (Algorithm 1), its MPC round compression OneRoundMPC (Algorithm 2), and
// the complete driver FullMPC (Algorithm 3).
//
// The LP being approximated is
//
//	maximize   Σ_e x_e
//	subject to Σ_{e∈E(v)} x_e ≤ b_v   for every v
//	           x_e ≤ r_e              for every e
//	           x ≥ 0,
//
// with arbitrary non-negative reals b and r (Section 3.3). Setting r_e = 1
// makes it the relaxation of integral b-matching.
package frac

import (
	"context"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/scratch"
)

// Problem bundles an LP instance: a graph with vertex capacities B and edge
// capacities R.
type Problem struct {
	G *graph.Graph
	B []float64 // b_v ≥ 0
	R []float64 // r_e ≥ 0
}

// NewProblem validates and returns an LP instance.
func NewProblem(g *graph.Graph, b, r []float64) (*Problem, error) {
	if len(b) != g.N {
		return nil, fmt.Errorf("frac: |b| = %d, want n = %d", len(b), g.N)
	}
	if len(r) != g.M() {
		return nil, fmt.Errorf("frac: |r| = %d, want m = %d", len(r), g.M())
	}
	for v, x := range b {
		if x < 0 || math.IsNaN(x) {
			return nil, fmt.Errorf("frac: invalid b[%d] = %v", v, x)
		}
	}
	for e, x := range r {
		if x < 0 || math.IsNaN(x) {
			return nil, fmt.Errorf("frac: invalid r[%d] = %v", e, x)
		}
	}
	return &Problem{G: g, B: b, R: r}, nil
}

// BMatchingProblem returns the LP instance for integral b-matching: edge
// capacities r_e = 1 and vertex capacities from the budget vector.
func BMatchingProblem(g *graph.Graph, b graph.Budgets) *Problem {
	r := make([]float64, g.M())
	for i := range r {
		r[i] = 1
	}
	p, err := NewProblem(g, b.Floats(), r)
	if err != nil {
		panic(err) // budgets validated by caller; unreachable for valid input
	}
	return p
}

// VertexSums writes y[v] = Σ_{e∈E(v)} x_e into dst (len n) and returns it.
// x is V-typed; the sums accumulate (and are returned) in float64. The
// blocked CSR gather (kernels.go) runs on a pool of workers goroutines
// (0 = GOMAXPROCS), and the sums are bit-identical to the serial edge sweep
// for every width.
func (w View[V]) VertexSums(dst []float64, x []V, workers int) []float64 {
	ar, done := scratch.Borrow(nil)
	defer done()
	w.vertexSumsGather(dst, x, workers, vertexBlocksScratch(w.p.G, vertexWorkGrain, ar))
	return dst
}

// Value returns Σ_e x_e.
func Value(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// VLoose writes the indicator of V_loose(x, α) =
// {v : Σ_{e∈E(v)} x_e < α·b_v} (Definition 3.2) into dst (len n), using y
// (len n) as vertex-sum scratch, and returns dst. The sum and the
// indicator are fused into one CSR walk (kernels.go); the indicator
// compares the float64 sum, y stores it rounded to V. Results are
// bit-identical to the two-pass form for every worker count
// (0 = GOMAXPROCS).
func (w View[V]) VLoose(dst []bool, y []V, x []V, alpha float64, workers int) []bool {
	ar, done := scratch.Borrow(nil)
	defer done()
	w.vLooseGather(dst, y, x, alpha, workers, vertexBlocksScratch(w.p.G, vertexWorkGrain, ar))
	return dst
}

// IsTight reports whether x is α-tight: E_loose(x, α) = ∅.
func (p *Problem) IsTight(x []float64, alpha float64) bool {
	return len(NewView[float64](p).ELoose(x, alpha, 0)) == 0
}

// CheckFeasibleTol verifies 0 ≤ x_e ≤ r_e and Σ_{e∈E(v)} x_e ≤ b_v up to
// the relative tolerance tol for floating-point accumulation. The f64
// drivers use 1e-9; the float32 value mode needs a wider one (~1e-6):
// per-edge stores round to float32, so a vertex sum can exceed b_v by up
// to ~deg·ulp(x̄) ≈ 2⁻²³·Σx even though every rounding is individually
// clamped to its edge capacity.
func (p *Problem) CheckFeasibleTol(x []float64, tol float64) error {
	if len(x) != p.G.M() {
		return fmt.Errorf("frac: |x| = %d, want m = %d", len(x), p.G.M())
	}
	for e, xe := range x {
		if xe < -tol || xe > p.R[e]*(1+tol)+tol {
			return fmt.Errorf("frac: x[%d] = %v violates [0, r=%v]", e, xe, p.R[e])
		}
	}
	y := NewView[float64](p).VertexSums(make([]float64, p.G.N), x, 0)
	for v := range y {
		if y[v] > p.B[v]*(1+tol)+tol {
			return fmt.Errorf("frac: vertex %d sum %v > b = %v", v, y[v], p.B[v])
		}
	}
	return nil
}

// DualBound returns the Lemma 3.3 certificate for an α-tight feasible x: the
// dual solution (y_v = 1 iff Σ x_e ≥ α·b_v, z_e = 1 iff x_e ≥ α·r_e) is
// feasible, so OPT ≤ Σ_v b_v·y_v + Σ_e z_e·r_e, and the lemma's charging
// argument gives Σx_e ≥ (α/3)·OPT. The returned value is the dual objective,
// a certified upper bound on the LP optimum (hence on the maximum
// b-matching size when r ≡ 1).
func (p *Problem) DualBound(x []float64, alpha float64) float64 {
	y := NewView[float64](p).VertexSums(make([]float64, p.G.N), x, 0)
	var bound float64
	for v := 0; v < p.G.N; v++ {
		if y[v] >= alpha*p.B[v] {
			bound += p.B[v]
		}
	}
	for e := range p.G.Edges {
		if x[e] >= alpha*p.R[e] {
			bound += p.R[e]
		}
	}
	return bound
}

// InitialValuesUnclamped returns the ablated initialization
// q_v = 0.8·b_v/deg(v) (no max(d̄, ·) clamp). Still a valid fractional
// b-matching, but low-degree vertices get edge values large enough to wreck
// the round-compression estimates (Section 1.4); experiment E10 quantifies
// the difference.
func (p *Problem) InitialValuesUnclamped() []float64 {
	return NewView[float64](p).initialValuesUnclampedInto(make([]float64, p.G.M()), make([]float64, p.G.N))
}

func (w View[V]) initialValuesUnclampedInto(dst []V, q []float64) []V {
	p := w.p
	for v := 0; v < p.G.N; v++ {
		d := float64(p.G.Deg(int32(v)))
		if d <= 0 {
			q[v] = 0
			continue
		}
		q[v] = 0.8 * p.B[v] / d
	}
	for e := range p.G.Edges {
		ed := p.G.Edges[e]
		dst[e] = V(math.Min(float64(w.r[e]), math.Min(q[ed.U], q[ed.V])))
	}
	return dst
}

// ThresholdFn supplies the random activity thresholds T_{v,t} ~
// U(0.2·b_v, 0.4·b_v) of Algorithm 1. Sharing one ThresholdFn between
// Sequential and OneRoundMPC realizes the coupling used throughout Section
// 3.6 (and experiment E11).
type ThresholdFn func(v int32, t int) float64

// NewThresholds draws an independent threshold table for rounds 1..T over
// the problem's vertices and returns it as a ThresholdFn.
func NewThresholds(p *Problem, T int, r *rng.RNG) ThresholdFn {
	return thresholdsInto(p, T, r, make([]float64, p.G.N*(T+1)))
}

// thresholdsInto draws the table into tab, a flat row-major slab of
// n·(T+1) entries (row v at tab[v·(T+1):]). The flat layout is what makes
// a threshold table two allocations instead of n+1; with an arena-borrowed
// slab (newThresholdsScratch) it is zero. The draw order — vertices
// ascending, rounds 1..T within a vertex — is part of the determinism
// contract and must not change; the value type only affects how the drawn
// float64 is stored (ThresholdFn always hands back float64, converting on
// read, so comparisons stay full-precision either way).
func thresholdsInto[V Val](p *Problem, T int, r *rng.RNG, tab []V) ThresholdFn {
	stride := T + 1
	for v := 0; v < p.G.N; v++ {
		row := tab[v*stride : (v+1)*stride]
		row[0] = 0 // t=0 is never drawn; keep it defined even on a raw slab
		for t := 1; t <= T; t++ {
			row[t] = V(r.Uniform(0.2*p.B[v], 0.4*p.B[v]))
		}
	}
	b := p.B
	return func(v int32, t int) float64 {
		if t < stride {
			return float64(tab[int(v)*stride+t])
		}
		// Beyond the pre-drawn horizon (only reachable if callers ask for
		// more rounds than they declared): fall back to the interval midpoint.
		return 0.3 * b[v]
	}
}

// newThresholdsScratch is NewThresholds drawing its table from ar. The
// returned ThresholdFn borrows from ar and must not outlive the caller's
// release scope.
func newThresholdsScratch[V Val](p *Problem, T int, r *rng.RNG, ar *scratch.Arena) ThresholdFn {
	return thresholdsInto(p, T, r, grabV[V](ar, p.G.N*(T+1)))
}

// FixedThresholds returns the ablation threshold rule T_{v,t} = c·b_v
// (experiment E11 uses c = 0.5, the variant described in the introduction).
func FixedThresholds(p *Problem, c float64) ThresholdFn {
	return func(v int32, t int) float64 { return c * p.B[v] }
}

// Sequential runs Algorithm 1 for T rounds and returns the resulting
// fractional solution x, with the working vectors in V precision.
// thresholds may be nil, in which case a fresh threshold table is drawn
// from r.
//
// By Lemma 3.4 the result is LP-feasible with Σ_{e∈E(v)} x_e ≤ 0.8·b_v, and
// by Lemma 3.5 |E_loose(x, 0.2)| ≤ 5|E|/2^T.
//
// ctx is checked at every round boundary, and a cancelled run returns
// ctx's error with no partial solution. The round-local buffers (threshold
// table, activity mask, vertex sums) come from ar, so a warmed long-lived
// caller runs rounds allocation-free; ar == nil borrows a pooled arena.
// Only the returned solution is heap-allocated. The blocked round kernels
// run on a pool of workers goroutines (0 = GOMAXPROCS). The solution is
// bit-identical for every worker count and arena (and across arena reuse).
func (w View[V]) Sequential(ctx context.Context, T int, thresholds ThresholdFn, r *rng.RNG, ar *scratch.Arena, workers int) ([]V, error) {
	x := make([]V, w.p.G.M())
	if err := sequentialInto(ctx, w, x, T, thresholds, r, ar, workers); err != nil {
		return nil, err
	}
	return x, nil
}

// sequentialInto runs Algorithm 1 writing the solution into x (len m).
// All working buffers come from ar. Each round is two fused blocked
// sweeps instead of the four serial passes of the textbook form: a
// vertex-block pass that gathers y_{v,t-1} from the CSR incidence list and
// applies the threshold test in place, and an edge-block pass that doubles
// the still-active edges. Per-vertex sums fold in CSR (ascending edge id)
// order — the same additions in the same order as the serial edge sweep —
// so the solution is bit-identical for every worker count and grain.
// Per-vertex sums accumulate in float64 whatever V is (the threshold
// comparison needs full precision); doubling a V value is exact in either
// type, so the float32 mode rounds only at initialization.
func sequentialInto[V Val](ctx context.Context, w View[V], x []V, T int, thresholds ThresholdFn, r *rng.RNG, ar *scratch.Arena, workers int) error {
	ar, done := scratch.Borrow(ar)
	defer done()
	p := w.p
	if thresholds == nil {
		thresholds = newThresholdsScratch[V](p, T, r, ar)
	}
	g := p.G
	w.InitialValues(x, ar.F64Raw(g.N), g.AvgDeg(), workers)
	active := ar.BoolRaw(g.N) // V_t^active
	for v := range active {
		active[v] = true
	}
	vb := vertexBlocksScratch(g, vertexWorkGrain, ar)
	// The pass closures are hoisted out of the round loop (they read the
	// round index t through the capture) so a warmed run allocates nothing
	// per round.
	t := 0
	// V_t^active = {v ∈ V_{t-1}^active : y_{v,t-1} ≤ T_{v,t}} with
	// y_{v,t-1} = Σ_{e∈E(v)} x_{e,t-1} gathered in the same pass.
	vertexPass := func(lo, hi int) {
		for b := lo; b < hi; b++ {
			for v := vb[b]; v < vb[b+1]; v++ {
				if !active[v] {
					continue
				}
				var s float64
				for _, e := range g.Incident(v) {
					s += float64(x[e])
				}
				if s > thresholds(v, t) {
					active[v] = false
				}
			}
		}
	}
	// E_t^active = edges between active vertices with x ≤ r/2; double them.
	edgePass := func(lo, hi int) {
		for e := lo; e < hi; e++ {
			ed := g.Edges[e]
			if active[ed.U] && active[ed.V] && float64(x[e]) <= float64(w.r[e])/2 {
				x[e] *= 2
			}
		}
	}
	for t = 1; t <= T; t++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		//lint:parallel blocks write disjoint active[v] slots; each vertex's sum is its own CSR-order fold
		par.ParallelForBlocks(workers, len(vb)-1, 1, vertexPass)
		//lint:parallel elementwise over edges: x[e] is written only by e's own block
		par.ParallelForBlocks(workers, len(x), edgeGrain, edgePass)
	}
	return nil
}

// TightRounds returns ⌈log2(5m+1)⌉, the number of Sequential rounds that
// guarantees a 0.2-tight solution (Theorem 3.6).
func TightRounds(m int) int {
	if m <= 0 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(5*m + 1))))
}
