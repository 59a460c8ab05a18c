package frac

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/rng"
)

func gnmProblem(n, m, b int, seed int64) *Problem {
	r := rng.New(seed)
	g := graph.Gnm(n, m, r)
	return BMatchingProblem(g, graph.UniformBudgets(n, b))
}

// IsTight reports whether x is α-tight: E_loose(x, α) = ∅.
func (p *Problem) IsTight(x []float64, alpha float64) bool {
	return len(NewView[float64](p).ELoose(x, alpha, 0)) == 0
}

// The helpers below drive the f64 entry points with a background context,
// a pooled arena and the default pool width.

func sequential(tb testing.TB, p *Problem, T int, thresholds ThresholdFn, r *rng.RNG) []float64 {
	tb.Helper()
	x, err := NewView[float64](p).Sequential(context.Background(), T, thresholds, r, nil, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return x
}

func oneRoundRun(tb testing.TB, p *Problem, params MPCParams, thresholds ThresholdFn, r *rng.RNG) *OneRoundResult {
	tb.Helper()
	res, err := p.OneRoundMPCCtx(context.Background(), params, thresholds, r)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func fullMPCRun(tb testing.TB, p *Problem, params MPCParams, r *rng.RNG) *FullResult {
	tb.Helper()
	res, err := p.FullMPCCtx(context.Background(), params, r)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func vertexSums(p *Problem, x []float64) []float64 {
	return NewView[float64](p).VertexSums(make([]float64, p.G.N), x, 0)
}

func eLoose(p *Problem, x []float64, alpha float64) []int32 {
	return NewView[float64](p).ELoose(x, alpha, 0)
}

func initialValues(p *Problem, avgDeg float64) []float64 {
	return NewView[float64](p).InitialValues(make([]float64, p.G.M()), make([]float64, p.G.N), avgDeg, 0)
}

func TestNewProblemValidation(t *testing.T) {
	g := graph.Gnm(5, 6, rng.New(1))
	if _, err := NewProblem(g, []float64{1}, make([]float64, 6)); err == nil {
		t.Fatal("wrong b length accepted")
	}
	if _, err := NewProblem(g, make([]float64, 5), []float64{1}); err == nil {
		t.Fatal("wrong r length accepted")
	}
	bad := make([]float64, 5)
	bad[2] = -1
	if _, err := NewProblem(g, bad, make([]float64, 6)); err == nil {
		t.Fatal("negative b accepted")
	}
}

func TestInitialValuesFeasibleAndBounded(t *testing.T) {
	p := gnmProblem(100, 800, 3, 2)
	x := initialValues(p, p.G.AvgDeg())
	if err := p.CheckFeasibleTol(x, 1e-9); err != nil {
		t.Fatal(err)
	}
	// Lemma 3.4 base case: Σ_{e∈E(v)} x_{e,0} ≤ 0.8·b_v.
	y := vertexSums(p, x)
	for v := range y {
		if y[v] > 0.8*p.B[v]+1e-9 {
			t.Fatalf("vertex %d initial sum %v > 0.8b = %v", v, y[v], 0.8*p.B[v])
		}
	}
}

// Lemma 3.4: feasibility with the 0.8 slack holds after every round.
func TestSequentialLemma34(t *testing.T) {
	p := gnmProblem(80, 500, 2, 3)
	r := rng.New(4)
	for _, T := range []int{0, 1, 3, 7, 15} {
		x := sequential(t, p, T, nil, r.Split())
		if err := p.CheckFeasibleTol(x, 1e-9); err != nil {
			t.Fatalf("T=%d: %v", T, err)
		}
		y := vertexSums(p, x)
		for v := range y {
			if y[v] > 0.8*p.B[v]+1e-9 {
				t.Fatalf("T=%d vertex %d: sum %v > 0.8b", T, v, y[v])
			}
		}
		for e := range x {
			if x[e] > p.R[e]+1e-12 {
				t.Fatalf("T=%d edge %d: x=%v > r=%v", T, e, x[e], p.R[e])
			}
		}
	}
}

// Lemma 3.5: |E_loose(x, 0.2)| ≤ 5|E|/2^T.
func TestSequentialLemma35Decay(t *testing.T) {
	p := gnmProblem(200, 2000, 2, 5)
	r := rng.New(6)
	for _, T := range []int{0, 2, 4, 6, 8, 10, 12} {
		x := sequential(t, p, T, nil, r.Split())
		loose := len(eLoose(p, x, 0.2))
		bound := 5 * float64(p.G.M()) / math.Pow(2, float64(T))
		if float64(loose) > bound {
			t.Fatalf("T=%d: |E_loose| = %d > bound %v", T, loose, bound)
		}
	}
}

// Theorem 3.6: after ⌈log2(5m+1)⌉ rounds the solution is 0.2-tight.
func TestSequentialTheorem36Tight(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		p := gnmProblem(60, 400, 2, 10+seed)
		x := sequential(t, p, TightRounds(p.G.M()), nil, rng.New(seed))
		if !p.IsTight(x, 0.2) {
			t.Fatalf("seed %d: not 0.2-tight after TightRounds", seed)
		}
		if err := p.CheckFeasibleTol(x, 1e-9); err != nil {
			t.Fatal(err)
		}
	}
}

// Tightness works with heterogeneous b and general r as well (the paper's
// general LP setting of Section 3.3).
func TestSequentialGeneralCapacities(t *testing.T) {
	r := rng.New(20)
	g := graph.Gnm(50, 300, r.Split())
	b := make([]float64, 50)
	for v := range b {
		b[v] = r.Uniform(0.5, 8)
	}
	re := make([]float64, g.M())
	for e := range re {
		re[e] = r.Uniform(0.1, 2)
	}
	p, err := NewProblem(g, b, re)
	if err != nil {
		t.Fatal(err)
	}
	x := sequential(t, p, TightRounds(g.M()), nil, r.Split())
	if err := p.CheckFeasibleTol(x, 1e-9); err != nil {
		t.Fatal(err)
	}
	if !p.IsTight(x, 0.2) {
		t.Fatal("not tight on general capacities")
	}
}

// Duality (Lemma 3.3): an α-tight solution has Σx ≥ (α/3)·OPT, where the
// dual bound certifies OPT. Check Σx ≥ (α/3)·DualBound.
func TestDualBoundCharging(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		p := gnmProblem(60, 350, 2, 30+seed)
		x := sequential(t, p, TightRounds(p.G.M()), nil, rng.New(seed))
		const alpha = 0.2
		if !p.IsTight(x, alpha) {
			t.Fatal("precondition failed")
		}
		val := Value(x)
		bound := p.DualBound(x, alpha)
		if val < alpha/3*bound-1e-9 {
			t.Fatalf("seed %d: Σx = %v < (α/3)·dual = %v", seed, val, alpha/3*bound)
		}
	}
}

func TestVLooseELooseDefinitions(t *testing.T) {
	g := graph.MustNew(3, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}})
	p := BMatchingProblem(g, graph.UniformBudgets(3, 1))
	x := []float64{0.5, 0.0}
	vl := NewView[float64](p).VLoose(make([]bool, 3), make([]float64, 3), x, 0.2, 0)
	// y = [0.5, 0.5, 0]; αb = 0.2 — vertex 2 loose only.
	if vl[0] || vl[1] || !vl[2] {
		t.Fatalf("VLoose = %v", vl)
	}
	el := eLoose(p, x, 0.2)
	// Edge 1 has x=0 < 0.2 but vertex 1 is not loose → no loose edges.
	if len(el) != 0 {
		t.Fatalf("ELoose = %v, want empty", el)
	}
}

func TestThresholdsWithinInterval(t *testing.T) {
	p := gnmProblem(30, 60, 3, 40)
	th := NewThresholds(p, 10, rng.New(1))
	for v := int32(0); v < 30; v++ {
		for tt := 1; tt <= 10; tt++ {
			x := th(v, tt)
			if x < 0.2*p.B[v] || x > 0.4*p.B[v] {
				t.Fatalf("threshold %v outside [0.2b, 0.4b]", x)
			}
		}
	}
	fx := FixedThresholds(p, 0.5)
	if fx(3, 1) != 0.5*p.B[3] {
		t.Fatal("fixed threshold wrong")
	}
}

func TestOneRoundMPCFeasible(t *testing.T) {
	p := gnmProblem(200, 3000, 2, 50)
	res := oneRoundRun(t, p, PracticalParams(), nil, rng.New(7))
	if err := p.CheckFeasibleTol(res.X, 1e-9); err != nil {
		t.Fatal(err)
	}
	if res.N != int(math.Ceil(math.Sqrt(p.G.AvgDeg()))) {
		t.Fatalf("N = %d", res.N)
	}
	if res.Stats.Rounds == 0 || res.Stats.Rounds > 8 {
		t.Fatalf("rounds = %d, want small constant", res.Stats.Rounds)
	}
	if res.T < 1 {
		t.Fatalf("practical T = %d, want >= 1", res.T)
	}
}

func TestOneRoundMPCPaperModeTZero(t *testing.T) {
	// With the paper's divisor 1000 and laptop-scale N, T = 0: the output
	// must equal the (feasibility-filtered) initialization and be feasible.
	p := gnmProblem(100, 1000, 2, 60)
	res := oneRoundRun(t, p, PaperParams(), nil, rng.New(8))
	if res.T != 0 {
		t.Fatalf("paper-mode T = %d at this scale, want 0", res.T)
	}
	if err := p.CheckFeasibleTol(res.X, 1e-9); err != nil {
		t.Fatal(err)
	}
	x0 := initialValues(p, p.G.AvgDeg())
	for e := range res.X {
		if res.X[e] != 0 && math.Abs(res.X[e]-x0[e]) > 1e-12 {
			t.Fatalf("edge %d: %v not in {0, x0=%v}", e, res.X[e], x0[e])
		}
	}
}

// The coupling of Section 3.6: with shared thresholds, the MPC estimate
// ỹ_{v,T} should be close to the idealized y_{v,T} for most vertices
// (Lemma 3.8's empirical shape; we assert the 90th percentile).
func TestCouplingEstimateQuality(t *testing.T) {
	p := gnmProblem(400, 8000, 2, 70)
	T := PracticalParams().pickT(int(math.Ceil(math.Sqrt(p.G.AvgDeg()))))
	r := rng.New(9)
	th := NewThresholds(p, T+1, r.Split())
	xSeq := sequential(t, p, T, th, r.Split())
	res := oneRoundRun(t, p, PracticalParams(), th, r.Split())
	ySeq := vertexSums(p, xSeq)
	yMPC := vertexSums(p, res.X)
	big := 0
	for v := 0; v < p.G.N; v++ {
		if math.Abs(ySeq[v]-yMPC[v]) > 0.5*p.B[v] {
			big++
		}
	}
	if big > p.G.N/10 {
		t.Fatalf("coupling poor: %d/%d vertices deviate by > 0.5b", big, p.G.N)
	}
}

func TestFullMPCTightAndFeasible(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		p := gnmProblem(150, 2500, 2, 80+seed)
		res := fullMPCRun(t, p, PracticalParams(), rng.New(seed))
		if !res.Converged {
			t.Fatalf("seed %d: did not converge", seed)
		}
		if err := p.CheckFeasibleTol(res.X, 1e-9); err != nil {
			t.Fatal(err)
		}
		if !p.IsTight(res.X, 0.05) {
			t.Fatalf("seed %d: not 0.05-tight", seed)
		}
		if res.Iterations == 0 || res.Iterations > 50 {
			t.Fatalf("seed %d: iterations = %d", seed, res.Iterations)
		}
	}
}

func TestFullMPCEmptyGraph(t *testing.T) {
	g := graph.MustNew(5, nil)
	p := BMatchingProblem(g, graph.UniformBudgets(5, 2))
	res := fullMPCRun(t, p, PracticalParams(), rng.New(1))
	if !res.Converged || res.Iterations != 0 {
		t.Fatal("empty graph should converge immediately")
	}
}

func TestFullMPCValueWithinConstantOfOPT(t *testing.T) {
	// Σx vs the dual certificate: 0.05-tight gives Σx ≥ (0.05/3)·OPT; in
	// practice the ratio is far better — assert the proven bound.
	p := gnmProblem(120, 1500, 3, 90)
	res := fullMPCRun(t, p, PracticalParams(), rng.New(2))
	val := Value(res.X)
	bound := p.DualBound(res.X, 0.05)
	if val < 0.05/3*bound-1e-9 {
		t.Fatalf("Σx = %v below proven fraction of dual bound %v", val, bound)
	}
	if bound <= 0 || val <= 0 {
		t.Fatal("degenerate outcome")
	}
}

func TestTightRounds(t *testing.T) {
	if TightRounds(0) != 0 {
		t.Fatal("TightRounds(0)")
	}
	if got := TightRounds(100); got != int(math.Ceil(math.Log2(501))) {
		t.Fatalf("TightRounds(100) = %d", got)
	}
}

// Property: Sequential output is always feasible regardless of structure.
func TestSequentialFeasibleProperty(t *testing.T) {
	f := func(seed int64, nRaw, dRaw uint8) bool {
		n := 10 + int(nRaw)%50
		maxM := n * (n - 1) / 2
		m := 1 + (int(dRaw)*n/4)%maxM
		r := rng.New(seed)
		g := graph.Gnm(n, m, r.Split())
		b := graph.RandomBudgets(n, 1, 4, r.Split())
		p := BMatchingProblem(g, b)
		x := sequential(t, p, 8, nil, r.Split())
		return p.CheckFeasibleTol(x, 1e-9) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: OneRoundMPC output is always feasible.
func TestOneRoundMPCFeasibleProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rng.New(seed)
		g := graph.Gnm(60, 600, r.Split())
		b := graph.RandomBudgets(60, 1, 3, r.Split())
		p := BMatchingProblem(g, b)
		res := oneRoundRun(t, p, PracticalParams(), nil, r.Split())
		return p.CheckFeasibleTol(res.X, 1e-9) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestOneRoundMPCDeterministicGivenSeed(t *testing.T) {
	p := gnmProblem(100, 1200, 2, 91)
	a := oneRoundRun(t, p, PracticalParams(), nil, rng.New(5))
	b := oneRoundRun(t, p, PracticalParams(), nil, rng.New(5))
	for e := range a.X {
		if a.X[e] != b.X[e] {
			t.Fatalf("nondeterministic at edge %d: %v vs %v", e, a.X[e], b.X[e])
		}
	}
}
