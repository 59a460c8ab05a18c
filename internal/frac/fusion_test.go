package frac

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// This file is the kernel-fusion determinism harness: every fused blocked
// kernel is checked bit-for-bit (math.Float64bits, not approximate
// equality) against a retained copy of the serial multi-pass loop it
// replaced, across worker counts, block grains, and skewed-degree
// instances. The references below ARE the pre-fusion implementations —
// keep them dumb and obviously correct; they exist so the fused kernels
// can never drift silently.

// refVertexSums is the old serial edge sweep: y[v] accumulates x[e] in
// ascending edge-id order, the same left-fold the CSR gather performs.
func refVertexSums(p *Problem, x []float64) []float64 {
	y := make([]float64, p.G.N)
	for e, ed := range p.G.Edges {
		y[ed.U] += x[e]
		y[ed.V] += x[e]
	}
	return y
}

// refVLoose is the old two-pass V_loose: vertex sums, then the indicator.
func refVLoose(p *Problem, x []float64, alpha float64) []bool {
	y := refVertexSums(p, x)
	dst := make([]bool, p.G.N)
	for v := range dst {
		dst[v] = y[v] < alpha*p.B[v]
	}
	return dst
}

// refELoose is the old append-based serial filter over ascending edge ids.
func refELoose(p *Problem, x []float64, alpha float64) []int32 {
	vl := refVLoose(p, x, alpha)
	var out []int32
	for e, ed := range p.G.Edges {
		if x[e] < alpha*p.R[e] && vl[ed.U] && vl[ed.V] {
			out = append(out, int32(e))
		}
	}
	return out
}

// refInitialValues is the old serial two-pass x_0 initialization.
func refInitialValues(p *Problem, avgDeg float64) []float64 {
	g := p.G
	q := make([]float64, g.N)
	for v := range q {
		den := math.Max(float64(g.Deg(int32(v))), avgDeg)
		if den <= 0 {
			q[v] = 0
			continue
		}
		q[v] = 0.8 * p.B[v] / den
	}
	x := make([]float64, g.M())
	for e, ed := range g.Edges {
		x[e] = math.Min(p.R[e], math.Min(q[ed.U], q[ed.V]))
	}
	return x
}

// refSequential is Algorithm 1 in its textbook four-pass-per-round form:
// zero the sums, accumulate the edge sweep, threshold-test the active
// vertices, double the surviving edges.
func refSequential(p *Problem, T int, thresholds ThresholdFn) []float64 {
	g := p.G
	x := refInitialValues(p, g.AvgDeg())
	active := make([]bool, g.N)
	for v := range active {
		active[v] = true
	}
	for t := 1; t <= T; t++ {
		y := refVertexSums(p, x)
		for v := range active {
			if active[v] && y[v] > thresholds(int32(v), t) {
				active[v] = false
			}
		}
		for e, ed := range g.Edges {
			if active[ed.U] && active[ed.V] && x[e] <= p.R[e]/2 {
				x[e] *= 2
			}
		}
	}
	return x
}

// fusionInstances builds the graph zoo the harness sweeps: a uniform
// sparse graph, a dense-ish one, a pure star (all work on one vertex —
// the degenerate degree-balancing case), a core–fringe skew, and the
// empty/tiny boundary cases.
func fusionInstances(t *testing.T) map[string]*Problem {
	t.Helper()
	r := rng.New(1234)
	gs := map[string]*graph.Graph{
		"gnm-sparse":  graph.Gnm(500, 1500, r.Split()),
		"gnm-dense":   graph.Gnm(120, 3000, r.Split()),
		"star":        graph.Star(300),
		"core-fringe": graph.CoreFringe(40, 600, 200, 120, r.Split()),
		"tiny":        graph.Gnm(4, 3, r.Split()),
		"empty":       graph.Gnm(5, 0, r.Split()),
	}
	out := make(map[string]*Problem, len(gs))
	for name, g := range gs {
		b := make([]float64, g.N)
		for v := range b {
			b[v] = r.Uniform(0, 3)
		}
		re := make([]float64, g.M())
		for e := range re {
			re[e] = r.Uniform(0.1, 1.5)
		}
		p, err := NewProblem(g, b, re)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = p
	}
	return out
}

// setKernelGrains overrides the package grains for one subtest and
// restores them on cleanup. grain 0 means "leave the default".
func setKernelGrains(t *testing.T, grain int) {
	t.Helper()
	oldE, oldV := edgeGrain, vertexWorkGrain
	t.Cleanup(func() { edgeGrain, vertexWorkGrain = oldE, oldV })
	if grain > 0 {
		edgeGrain, vertexWorkGrain = grain, grain
	}
}

var fusionWorkers = []int{1, 2, 4, 7}

// fusionGrains: 1 and 7 force a block per vertex/edge or tiny odd blocks,
// 1024 a handful of blocks, 0 the production default.
var fusionGrains = []int{1, 7, 1024, 0}

func bitsEqual(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// randomX draws a reproducible x vector with x[e] ∈ [0, r_e].
func randomX(p *Problem, seed int64) []float64 {
	r := rng.New(seed)
	x := make([]float64, p.G.M())
	for e := range x {
		x[e] = r.Uniform(0, p.R[e])
	}
	return x
}

func TestFusedKernelsBitIdentical(t *testing.T) {
	const alpha = 0.2
	for name, p := range fusionInstances(t) {
		w := NewView[float64](p)
		x := randomX(p, 99)
		wantSums := refVertexSums(p, x)
		wantVL := refVLoose(p, x, alpha)
		wantEL := refELoose(p, x, alpha)
		wantInit := refInitialValues(p, p.G.AvgDeg())
		for _, grain := range fusionGrains {
			for _, workers := range fusionWorkers {
				t.Run(fmt.Sprintf("%s/grain=%d/workers=%d", name, grain, workers), func(t *testing.T) {
					setKernelGrains(t, grain)

					gotSums := w.VertexSums(make([]float64, p.G.N), x, workers)
					if i, ok := bitsEqual(wantSums, gotSums); !ok {
						t.Errorf("VertexSums diverges at v=%d: ref %x fused %x",
							i, math.Float64bits(wantSums[i]), math.Float64bits(gotSums[i]))
					}

					y := make([]float64, p.G.N)
					gotVL := w.VLoose(make([]bool, p.G.N), y, x, alpha, workers)
					for v := range wantVL {
						if wantVL[v] != gotVL[v] {
							t.Errorf("VLoose diverges at v=%d: ref %v fused %v", v, wantVL[v], gotVL[v])
							break
						}
					}
					if i, ok := bitsEqual(wantSums, y); !ok {
						t.Errorf("VLoose y scratch diverges at v=%d", i)
					}

					gotEL := w.ELoose(x, alpha, workers)
					if len(gotEL) != len(wantEL) {
						t.Fatalf("ELoose: ref %d edges, fused %d", len(wantEL), len(gotEL))
					}
					for i := range wantEL {
						if wantEL[i] != gotEL[i] {
							t.Errorf("ELoose diverges at %d: ref e=%d fused e=%d", i, wantEL[i], gotEL[i])
							break
						}
					}

					gotInit := w.InitialValues(make([]float64, p.G.M()), make([]float64, p.G.N), p.G.AvgDeg(), workers)
					if i, ok := bitsEqual(wantInit, gotInit); !ok {
						t.Errorf("InitialValues diverges at e=%d", i)
					}
				})
			}
		}
	}
}

func TestFusedSequentialBitIdentical(t *testing.T) {
	const T = 8
	for name, p := range fusionInstances(t) {
		thresholds := NewThresholds(p, T, rng.New(7))
		want := refSequential(p, T, thresholds)
		for _, grain := range fusionGrains {
			for _, workers := range fusionWorkers {
				t.Run(fmt.Sprintf("%s/grain=%d/workers=%d", name, grain, workers), func(t *testing.T) {
					setKernelGrains(t, grain)
					got, err := NewView[float64](p).Sequential(context.Background(), T, thresholds, nil, nil, workers)
					if err != nil {
						t.Fatal(err)
					}
					if i, ok := bitsEqual(want, got); !ok {
						t.Errorf("Sequential diverges at e=%d: ref %x fused %x",
							i, math.Float64bits(want[i]), math.Float64bits(got[i]))
					}
				})
			}
		}
	}
}

// TestFusedOneRoundMPCAcrossWorkersAndGrains pins the fused MPC local
// simulation (the round-2 sweeps of OneRoundMPC) across worker widths and
// block grains: the run with workers=1 at the production grain is the
// reference, and every other width/grain must reproduce its solution
// bit-for-bit from the same RNG stream and threshold table.
func TestFusedOneRoundMPCAcrossWorkersAndGrains(t *testing.T) {
	r := rng.New(42)
	g := graph.CoreFringe(30, 400, 150, 90, r.Split())
	b := graph.RandomBudgets(g.N, 1, 3, r.Split())
	p := BMatchingProblem(g, b)
	params := PracticalParams()
	T := params.pickT(int(math.Ceil(math.Sqrt(p.G.AvgDeg()))))
	thresholds := NewThresholds(p, T+1, rng.New(11))
	run := func(workers int) *OneRoundResult {
		params.Workers = workers
		return oneRoundRun(t, p, params, thresholds, rng.New(5))
	}
	want := run(1)
	for _, grain := range []int{64, 0} {
		for _, workers := range fusionWorkers {
			t.Run(fmt.Sprintf("grain=%d/workers=%d", grain, workers), func(t *testing.T) {
				setKernelGrains(t, grain)
				got := run(workers)
				if i, ok := bitsEqual(want.X, got.X); !ok {
					t.Errorf("OneRoundMPC diverges at e=%d: ref %x got %x",
						i, math.Float64bits(want.X[i]), math.Float64bits(got.X[i]))
				}
			})
		}
	}
}
