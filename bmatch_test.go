package bmatch

import (
	"context"
	"math"
	"testing"

	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/rng"
)

func TestApproxEndToEnd(t *testing.T) {
	r := rng.New(1)
	g := graph.Gnm(200, 3000, r.Split())
	b := graph.RandomBudgets(200, 1, 4, r.Split())
	rep, err := Solve(context.Background(), g, b, Request{Algo: AlgoApprox, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	m, stats := rep.M, rep.Stats
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if stats.CompressionSteps < 1 {
		t.Fatal("no compression steps recorded")
	}
	if stats.DualBound <= 0 {
		t.Fatal("no dual certificate")
	}
	// Certified approximation: |M| ≤ OPT ≤ DualBound and the constant
	// should be far better than the worst-case 60x of the proof chain.
	if float64(m.Size()) < stats.DualBound/60 {
		t.Fatalf("size %d below certified fraction of bound %v", m.Size(), stats.DualBound)
	}
}

func TestApproxDeterministicInSeed(t *testing.T) {
	g := graph.Gnm(100, 1000, rng.New(3))
	b := graph.UniformBudgets(100, 2)
	req := Request{Algo: AlgoApprox, Seed: 5}
	r1, err := Solve(context.Background(), g, b, req)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Solve(context.Background(), g, b, req)
	if err != nil {
		t.Fatal(err)
	}
	a, c := r1.M.Edges(), r2.M.Edges()
	if len(a) != len(c) {
		t.Fatalf("sizes differ: %d vs %d", len(a), len(c))
	}
	for i := range a {
		if a[i] != c[i] {
			t.Fatal("edge sets differ across identical seeds")
		}
	}
}

func TestApproxPaperConstants(t *testing.T) {
	g := graph.Gnm(100, 1500, rng.New(4))
	b := graph.UniformBudgets(100, 2)
	rep, err := Solve(context.Background(), g, b, Request{Algo: AlgoApprox, Seed: 1, PaperConstants: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.M.Validate(); err != nil {
		t.Fatal(err)
	}
	if rep.Stats.CompressionSteps < 1 {
		t.Fatal("paper-mode run recorded no iterations")
	}
}

func TestMaxEndToEnd(t *testing.T) {
	r := rng.New(8)
	g := graph.Bipartite(15, 15, 100, r.Split())
	b := graph.RandomBudgets(30, 1, 2, r.Split())
	opt, err := exact.MaxBipartite(g, b)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Solve(context.Background(), g, b, Request{Algo: AlgoMax, Seed: 2, Eps: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	m := rep.M
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if float64(m.Size()) < float64(opt)/1.25 {
		t.Fatalf("Max: size %d vs optimum %d", m.Size(), opt)
	}
}

func TestMaxWeightEndToEnd(t *testing.T) {
	r := rng.New(9)
	g := graph.BipartiteWeighted(12, 12, 80, 1, 10, r.Split())
	b := graph.RandomBudgets(24, 1, 2, r.Split())
	optW, err := exact.MaxWeightBipartite(g, b)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Solve(context.Background(), g, b, Request{Algo: AlgoMaxWeight, Seed: 3, Eps: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	m := rep.M
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Weight() < optW/1.3 {
		t.Fatalf("MaxWeight: %v vs optimum %v", m.Weight(), optW)
	}
}

func TestStreamEndToEnd(t *testing.T) {
	r := rng.New(10)
	g := graph.Gnm(40, 250, r.Split())
	b := graph.UniformBudgets(40, 2)
	rep, err := SolveStream(context.Background(), NewSliceStream(g), g.N, b, Request{Algo: AlgoMax, Seed: 4, Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Stream
	if res.Size == 0 || res.Passes < 1 {
		t.Fatalf("stream result degenerate: %+v", res)
	}
	if res.PeakWords >= int64(g.M())*3 {
		t.Fatalf("streaming memory %d not sublinear in m", res.PeakWords)
	}
}

func TestStreamWeightedEndToEnd(t *testing.T) {
	r := rng.New(11)
	g := graph.GnmWeighted(40, 250, 1, 5, r.Split())
	b := graph.UniformBudgets(40, 2)
	rep, err := SolveStream(context.Background(), NewSliceStream(g), g.N, b, Request{Algo: AlgoMaxWeight, Seed: 4, Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Stream
	if res.Weight <= 0 {
		t.Fatalf("stream weighted degenerate: %+v", res)
	}
}

func TestNewGraphValidates(t *testing.T) {
	if _, err := NewGraph(2, []Edge{{U: 0, V: 0, W: 1}}); err == nil {
		t.Fatal("self-loop accepted")
	}
}

func TestApproxRejectsBadBudgets(t *testing.T) {
	g := graph.Path(3)
	if _, err := Solve(context.Background(), g, Budgets{1}, Request{Algo: AlgoApprox}); err == nil {
		t.Fatal("short budget vector accepted")
	}
}

func TestApproxFractional(t *testing.T) {
	r := rng.New(12)
	g := graph.Gnm(150, 2500, r.Split())
	b := graph.RandomBudgets(150, 1, 3, r.Split())
	rep, err := Solve(context.Background(), g, b, Request{Algo: AlgoFrac, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Frac
	if res.Value <= 0 || res.DualBound < res.Value-1e-9 {
		t.Fatalf("certificates inverted: value=%v dual=%v", res.Value, res.DualBound)
	}
	// LP feasibility of the returned solution.
	sums := make([]float64, g.N)
	for e, x := range res.X {
		if x < -1e-12 || x > 1+1e-9 {
			t.Fatalf("x[%d] = %v out of [0,1]", e, x)
		}
		sums[g.Edges[e].U] += x
		sums[g.Edges[e].V] += x
	}
	for v := range sums {
		if sums[v] > float64(b[v])+1e-9 {
			t.Fatalf("vertex %d sum %v > b %d", v, sums[v], b[v])
		}
	}
	// The recovered dual must cover every edge.
	in := make([]bool, g.N)
	for _, v := range res.CoverVertices {
		in[v] = true
	}
	slack := map[int32]bool{}
	for _, e := range res.CoverSlackEdges {
		slack[e] = true
	}
	for e := range g.Edges {
		ed := g.Edges[e]
		if !in[ed.U] && !in[ed.V] && !slack[int32(e)] {
			t.Fatalf("edge %d not covered", e)
		}
	}
}

func TestApproxFractionalRejectsBadBudgets(t *testing.T) {
	g := graph.Path(3)
	if _, err := Solve(context.Background(), g, Budgets{1}, Request{Algo: AlgoFrac}); err == nil {
		t.Fatal("short budget vector accepted")
	}
}

// TestRequestValidate pins the ε contract: zero Eps keeps the default,
// (0,1) is accepted, and negative/NaN/Inf/≥1 are rejected before any work
// happens.
func TestRequestValidate(t *testing.T) {
	good := []float64{0, 0.01, 0.25, 0.999}
	for _, eps := range good {
		if err := (Request{Eps: eps}).Validate(); err != nil {
			t.Errorf("Eps=%v rejected: %v", eps, err)
		}
	}
	bad := []float64{-0.1, -1, 1, 1.5, math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, eps := range bad {
		if err := (Request{Eps: eps}).Validate(); err == nil {
			t.Errorf("Eps=%v accepted", eps)
		}
	}
}

func TestEntryPointsRejectBadEps(t *testing.T) {
	g := graph.Gnm(20, 40, rng.New(1))
	b := graph.UniformBudgets(20, 2)
	ctx := context.Background()
	for _, algo := range []Algo{AlgoApprox, AlgoMax, AlgoMaxWeight, AlgoFrac} {
		if _, err := Solve(ctx, g, b, Request{Algo: algo, Eps: math.NaN()}); err == nil {
			t.Errorf("Solve %s accepted NaN Eps", algo)
		}
	}
	if _, err := SolveStream(ctx, NewSliceStream(g), g.N, b, Request{Algo: AlgoMax, Eps: -2}); err == nil {
		t.Error("SolveStream max accepted negative Eps")
	}
	if _, err := SolveStream(ctx, NewSliceStream(g), g.N, b, Request{Algo: AlgoMaxWeight, Eps: 3}); err == nil {
		t.Error("SolveStream maxw accepted Eps >= 1")
	}
	if _, err := NewSession().Solve(ctx, g, b, Request{Algo: AlgoMax, Eps: 5}); err == nil {
		t.Error("Session.Solve accepted Eps >= 1")
	}
}

// TestSessionMatchesOneShot pins that Session.Solve returns exactly what
// the one-shot Solve returns, and that repeat solves (served from the
// session's result cache) stay identical.
func TestSessionMatchesOneShot(t *testing.T) {
	r := rng.New(8)
	g := graph.GnmWeighted(80, 600, 1, 9, r.Split())
	b := graph.RandomBudgets(80, 1, 3, r.Split())
	ctx := context.Background()
	req := Request{Algo: AlgoMaxWeight, Seed: 11, Eps: 0.25}

	wantRep, err := Solve(ctx, g, b, req)
	if err != nil {
		t.Fatal(err)
	}
	want := wantRep.M
	s := NewSession()
	for round := 0; round < 2; round++ {
		gotRep, err := s.Solve(ctx, g, b, req)
		if err != nil {
			t.Fatal(err)
		}
		got := gotRep.M
		// The session rebuilds the matching from edge ids, so its cached
		// weight accumulates in id order; allow the resulting last-ULP
		// float difference while requiring the edge sets to be identical.
		if got.Size() != want.Size() || math.Abs(got.Weight()-want.Weight()) > 1e-9*want.Weight() {
			t.Fatalf("round %d: session size/weight %d/%v != one-shot %d/%v",
				round, got.Size(), got.Weight(), want.Size(), want.Weight())
		}
		ge, we := got.Edges(), want.Edges()
		for i := range we {
			if ge[i] != we[i] {
				t.Fatalf("round %d: edge %d differs", round, i)
			}
		}
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
	}

	// Approx through the session carries the same certificate fields.
	areq := req
	areq.Algo = AlgoApprox
	r1, err := Solve(ctx, g, b, areq)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Solve(ctx, g, b, areq)
	if err != nil {
		t.Fatal(err)
	}
	st1, st2 := r1.Stats, r2.Stats
	if r1.M.Size() != r2.M.Size() || st1.DualBound != st2.DualBound ||
		st1.CompressionSteps != st2.CompressionSteps || st1.MaxMachineEdges != st2.MaxMachineEdges {
		t.Fatalf("session Approx diverged: %+v vs %+v", st1, st2)
	}
}
