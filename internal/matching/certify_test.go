package matching

import (
	"math"
	"testing"

	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/rng"
)

// forEachBMatching calls fn with every feasible b-matching of a graph with
// at most 16 edges.
func forEachBMatching(g *graph.Graph, b graph.Budgets, fn func(m *BMatching)) {
	for mask := 0; mask < 1<<g.M(); mask++ {
		m := MustNew(g, b)
		ok := true
		for e := 0; e < g.M() && ok; e++ {
			if mask&(1<<e) != 0 {
				ok = m.Add(int32(e)) == nil
			}
		}
		if ok {
			fn(m)
		}
	}
}

type certifyCase struct {
	name      string
	g         *graph.Graph
	b         graph.Budgets
	bipartite bool
}

// certifyCases are small random instances, bipartite and general, with
// continuous weights (no ties) and budgets 1–3.
func certifyCases() []certifyCase {
	var cases []certifyCase
	for seed := int64(1); seed <= 12; seed++ {
		r := rng.New(seed)
		bg := graph.BipartiteWeighted(4, 4, 7+int(seed%5), 1, 10, r.Split())
		cases = append(cases, certifyCase{"bipartite", bg, graph.RandomBudgets(bg.N, 1, 3, r.Split()), true})
		gg := graph.GnmWeighted(7, 8+int(seed%5), 1, 10, r.Split())
		_, bip := gg.IsBipartite()
		cases = append(cases, certifyCase{"gnm", gg, graph.RandomBudgets(gg.N, 1, 2, r.Split()), bip})
	}
	return cases
}

// TestCertifyMaxSizeExhaustive checks the cardinality certificate on every
// feasible b-matching of small instances: it fires only at the optimum
// size (soundness, any graph), and at every optimum of a bipartite graph
// (completeness).
func TestCertifyMaxSizeExhaustive(t *testing.T) {
	fired, optima := 0, 0
	for i, tc := range certifyCases() {
		opt, _ := exact.BruteForce(tc.g, tc.b)
		forEachBMatching(tc.g, tc.b, func(m *BMatching) {
			got := CertifyMaxSize(m)
			if got {
				fired++
			}
			if m.Size() == opt {
				optima++
			}
			if got && m.Size() != opt {
				t.Fatalf("case %d (%s): certified size %d, optimum %d", i, tc.name, m.Size(), opt)
			}
			if tc.bipartite && m.Size() == opt && !got {
				t.Fatalf("case %d (%s): bipartite optimum %v of size %d not certified", i, tc.name, m.Edges(), opt)
			}
		})
	}
	if fired == 0 || optima == 0 {
		t.Fatalf("vacuous: %d certified, %d optima", fired, optima)
	}
}

// TestCertifyMaxWeightExhaustive is the weighted mirror: certified
// matchings have the optimum weight, and on bipartite graphs with
// continuous weights (no zero-gain walks) every optimum is certified.
func TestCertifyMaxWeightExhaustive(t *testing.T) {
	fired := 0
	for i, tc := range certifyCases() {
		_, opt := exact.BruteForce(tc.g, tc.b)
		near := func(w float64) bool { return math.Abs(w-opt) <= 1e-9*opt }
		forEachBMatching(tc.g, tc.b, func(m *BMatching) {
			got := CertifyMaxWeight(m)
			if got {
				fired++
			}
			if got && !near(m.Weight()) {
				t.Fatalf("case %d (%s): certified weight %v, optimum %v", i, tc.name, m.Weight(), opt)
			}
			if tc.bipartite && near(m.Weight()) && !got {
				t.Fatalf("case %d (%s): bipartite optimum %v of weight %v not certified", i, tc.name, m.Edges(), opt)
			}
		})
	}
	if fired == 0 {
		t.Fatal("vacuous: no matching certified")
	}
}

// TestCertifyOddCycleStaysSilent: on C₅ with b ≡ 1 a maximum matching has
// size 2, but the double cover C₁₀ holds 5 edges, so G₂ has an augmenting
// path and neither certificate may fire.
func TestCertifyOddCycleStaysSilent(t *testing.T) {
	g := graph.Cycle(5)
	m := MustNew(g, graph.UniformBudgets(5, 1))
	for _, e := range []int32{0, 2} {
		if err := m.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if opt, _ := exact.BruteForce(g, graph.UniformBudgets(5, 1)); m.Size() != opt {
		t.Fatalf("setup: size %d, optimum %d", m.Size(), opt)
	}
	if CertifyMaxSize(m) {
		t.Error("CertifyMaxSize fired on C5: the odd-cycle gap must keep it silent")
	}
	if CertifyMaxWeight(m) {
		t.Error("CertifyMaxWeight fired on C5: the odd-cycle gap must keep it silent")
	}
}

// TestCertifyMaxWeightTiesBlock: a zero-gain improvement must keep the
// weight certificate silent, however the float sums round.
func TestCertifyMaxWeightTiesBlock(t *testing.T) {
	// Path 0-1-2-3 with weights 0.1, 0.3, 0.2: M = {12} weighs 0.3, and the
	// walk 01, 12, 23 gains 0.1+0.2−0.3, which is 5.6e-17 in float.
	g := graph.MustNew(4, []graph.Edge{{U: 0, V: 1, W: 0.1}, {U: 1, V: 2, W: 0.3}, {U: 2, V: 3, W: 0.2}})
	b := graph.UniformBudgets(4, 1)
	m := MustNew(g, b)
	if err := m.Add(1); err != nil {
		t.Fatal(err)
	}
	if CertifyMaxWeight(m) {
		t.Error("certified {12} although the walk 01,12,23 ties it")
	}
	other := MustNew(g, b)
	for _, e := range []int32{0, 2} {
		if err := other.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if CertifyMaxWeight(other) {
		t.Error("certified {01,23} although the walk 01,12,23 ties it")
	}

	// An addable zero-weight edge: adding it gains nothing, so M is
	// optimal, but the certificate must not claim there is nothing to add.
	// Once it is matched, dropping it is the zero-gain walk.
	g = graph.MustNew(4, []graph.Edge{{U: 0, V: 1, W: 5}, {U: 2, V: 3, W: 0}})
	m = MustNew(g, b)
	if err := m.Add(0); err != nil {
		t.Fatal(err)
	}
	if CertifyMaxWeight(m) {
		t.Error("certified a matching with an addable zero-weight edge")
	}
	if err := m.Add(1); err != nil {
		t.Fatal(err)
	}
	if CertifyMaxWeight(m) {
		t.Error("certified a matching holding a zero-weight edge")
	}
	// The same shape with a positive weight has no tie left.
	g = graph.MustNew(4, []graph.Edge{{U: 0, V: 1, W: 5}, {U: 2, V: 3, W: 1}})
	m = MustNew(g, b)
	for _, e := range []int32{0, 1} {
		if err := m.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if !CertifyMaxWeight(m) {
		t.Error("the full matching of two disjoint edges is not certified")
	}
}

// TestCertifyEmptyAndUnweightedGraphs covers the degenerate inputs: no
// edges, and all-zero weights, where every matching has weight 0.
func TestCertifyEmptyAndUnweightedGraphs(t *testing.T) {
	m := MustNew(graph.MustNew(3, nil), graph.UniformBudgets(3, 2))
	if !CertifyMaxSize(m) || !CertifyMaxWeight(m) {
		t.Error("the empty matching of an edgeless graph is not certified")
	}
	g := graph.MustNew(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	m = MustNew(g, graph.UniformBudgets(3, 1))
	if CertifyMaxSize(m) {
		t.Error("CertifyMaxSize fired on an empty matching with an addable edge")
	}
	if !CertifyMaxWeight(m) {
		t.Error("with every weight 0, every matching has maximum weight")
	}
}
