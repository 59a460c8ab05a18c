package frac

import (
	"context"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

func TestParseValueMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want ValueMode
	}{{"", ValuesF64}, {"f64", ValuesF64}, {"f32", ValuesF32}} {
		got, err := ParseValueMode(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseValueMode(%q) = %v, %v; want %v, nil", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseValueMode("float16"); err == nil {
		t.Errorf("ParseValueMode(\"float16\") succeeded; want error")
	}
	if ValuesF64.String() != "f64" || ValuesF32.String() != "f32" {
		t.Errorf("String() round-trip broken: %q %q", ValuesF64, ValuesF32)
	}
}

func valueTestProblem(t *testing.T, seed int64) *Problem {
	t.Helper()
	r := rng.New(seed)
	g := graph.Gnm(400, 3000, r.Split())
	return BMatchingProblem(g, graph.RandomBudgets(g.N, 1, 4, r.Split()))
}

// TestF32ViewCapacityMirrorFloors pins the View invariant the f32 clamps
// rely on: every mirrored capacity is the largest float32 ≤ the true one.
func TestF32ViewCapacityMirrorFloors(t *testing.T) {
	p := valueTestProblem(t, 11)
	w := NewView[float32](p)
	for e, r32 := range w.r {
		if float64(r32) > p.R[e] {
			t.Fatalf("edge %d: mirror %v exceeds capacity %v", e, r32, p.R[e])
		}
		if up := math.Nextafter32(r32, float32(math.Inf(1))); float64(up) <= p.R[e] {
			t.Fatalf("edge %d: mirror %v not maximal (next %v still ≤ %v)", e, r32, up, p.R[e])
		}
	}
}

// TestF32SequentialFeasibleAndClose runs the sequential solver in both value
// modes and checks the f32 solution is feasible at the f32 tolerance and its
// objective is within the documented relative error budget of the f64 one.
func TestF32SequentialFeasibleAndClose(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		p := valueTestProblem(t, seed)
		T := TightRounds(p.G.M())

		x64, err := NewView[float64](p).Sequential(context.Background(), T, nil, rng.New(99+seed), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		x32, err := NewView[float32](p).Sequential(context.Background(), T, nil, rng.New(99+seed), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		xf := make([]float64, len(x32))
		for i, v := range x32 {
			xf[i] = float64(v)
		}
		if err := p.CheckFeasibleTol(xf, 1e-6); err != nil {
			t.Fatalf("seed %d: f32 solution infeasible: %v", seed, err)
		}
		v64, v32 := Value(x64), Value(xf)
		if rel := math.Abs(v64-v32) / math.Max(v64, 1); rel > 1e-3 {
			t.Errorf("seed %d: objective gap %g (f64 %g, f32 %g) exceeds 1e-3", seed, rel, v64, v32)
		}
	}
}

// TestF32OneRoundMPCDeterministicAcrossWorkers: the f32 round-compression
// result must be bit-identical for every worker count, exactly like f64.
func TestF32OneRoundMPCDeterministicAcrossWorkers(t *testing.T) {
	p := valueTestProblem(t, 5)
	params := PracticalParams()
	params.Values = ValuesF32

	var ref []float64
	for _, workers := range []int{1, 2, 4} {
		params.Workers = workers
		res, err := p.OneRoundMPCCtx(context.Background(), params, nil, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			ref = res.X
			continue
		}
		for e := range ref {
			if math.Float64bits(ref[e]) != math.Float64bits(res.X[e]) {
				t.Fatalf("workers=%d: x[%d] = %v differs from workers=1 value %v", workers, e, res.X[e], ref[e])
			}
		}
	}
}

// TestF32FullMPCFeasibleAndDeterministic: the full driver in f32 mode must
// converge to a feasible solution and be worker-count independent.
func TestF32FullMPCFeasibleAndDeterministic(t *testing.T) {
	p := valueTestProblem(t, 9)
	params := PracticalParams()
	params.Values = ValuesF32

	var ref []float64
	for _, workers := range []int{1, 3} {
		params.Workers = workers
		res, err := p.FullMPCCtx(context.Background(), params, rng.New(13))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("workers=%d: f32 FullMPC did not converge", workers)
		}
		if err := p.CheckFeasibleTol(res.X, 1e-6); err != nil {
			t.Fatalf("workers=%d: f32 FullMPC solution infeasible: %v", workers, err)
		}
		if !p.IsTight(res.X, 0.05) {
			t.Fatalf("workers=%d: f32 FullMPC solution not 0.05-tight", workers)
		}
		if workers == 1 {
			ref = res.X
			continue
		}
		for e := range ref {
			if math.Float64bits(ref[e]) != math.Float64bits(res.X[e]) {
				t.Fatalf("workers=%d: x[%d] = %v differs from workers=1 value %v", workers, e, res.X[e], ref[e])
			}
		}
	}
}
