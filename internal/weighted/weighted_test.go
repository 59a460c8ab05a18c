package weighted

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/rng"
)

// --- Figures 2 and 3 of the paper -----------------------------------------

// figureGraph builds the exact instance of Figure 2: vertices x, w, u, v with
// b_w=3, b_v=2, b_u=1, b_x=1; edges {x,w} w=1 (matched), {w,v} w=2,
// {w,u} w=2, {u,v} w=1 (matched).
func figureGraph(t *testing.T) (*graph.Graph, graph.Budgets, *matching.BMatching) {
	t.Helper()
	const (
		x = 0
		w = 1
		u = 2
		v = 3
	)
	g := graph.MustNew(4, []graph.Edge{
		{U: x, V: w, W: 1}, // 0: matched
		{U: w, V: v, W: 2}, // 1
		{U: w, V: u, W: 2}, // 2
		{U: u, V: v, W: 1}, // 3: matched
	})
	b := graph.Budgets{1, 3, 1, 2} // b_x, b_w, b_u, b_v
	m := matching.MustNew(g, b)
	if err := m.Add(0); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(3); err != nil {
		t.Fatal(err)
	}
	return g, b, m
}

// TestFigures2And3 checks the properties the layering of Figure 3
// illustrates: matched edges are placed between exactly one T-side and one
// H-side copy when present; free copies that land on the "wrong" side for
// their role simply don't start/end walks (the paper's Step 5 drops v₂ when
// it is in H but unmatched with τᴬ₁ ≠ 0); and unmatched edges appear only
// in the single gap and orientation chosen by Step (III).
func TestFigures2And3(t *testing.T) {
	_, _, m := figureGraph(t)
	r := rng.New(11)
	for trial := 0; trial < 50; trial++ {
		in := buildInstanceScratch(m, 3, r.Split(), nil)
		g := m.Graph()
		for e := 0; e < g.M(); e++ {
			if m.Contains(int32(e)) {
				if in.present[e] {
					if in.layer[e] < 1 || in.layer[e] > 3 {
						t.Fatalf("matched edge %d in layer %d", e, in.layer[e])
					}
					if in.entryOf[e] == in.exitOf[e] {
						t.Fatalf("matched edge %d entry == exit", e)
					}
				}
			} else if in.present[e] {
				t.Fatalf("unmatched edge %d marked present as arc", e)
			}
		}
		// Step (III): each unmatched edge is registered under exactly one
		// source vertex (one orientation, never both).
		seen := map[int32]int{}
		for src := int32(0); int(src) < g.N; src++ {
			for _, e := range in.unmatchedEdges[in.unmatchedStart[src]:in.unmatchedStart[src+1]] {
				seen[e]++
				if !g.Edges[e].Has(src) {
					t.Fatalf("edge %d registered at non-endpoint %d", e, src)
				}
			}
		}
		for e, c := range seen {
			if c != 1 {
				t.Fatalf("unmatched edge %d registered %d times", e, c)
			}
			if m.Contains(e) {
				t.Fatalf("matched edge %d in unmatched index", e)
			}
		}
		// Free copies: w has residual 2 (b_w=3, one matched edge), v has
		// residual 1; every free copy lands on exactly one side.
		if in.freeH[1]+in.freeT[1] != 2 || in.freeH[3]+in.freeT[3] != 1 {
			t.Fatalf("free copy counts wrong: w %d+%d, v %d+%d",
				in.freeH[1], in.freeT[1], in.freeH[3], in.freeT[3])
		}
	}
}

// The figure instance has a gain-2 augmentation: add {w,v} (both free).
// The driver must find weight 1+1+2 = 4... actually optimum: matched {x,w}
// and {u,v} kept plus {w,v} added = 4; check against brute force.
func TestFigureInstanceOptimum(t *testing.T) {
	g, b, m := figureGraph(t)
	_, optW := exact.BruteForce(g, b)
	res, err := OnePlusEpsWeightedCtx(context.Background(), g, b, m, DefaultParams(0.2), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.M.Weight()-optW) > 1e-9 {
		t.Fatalf("driver weight %v, optimum %v", res.M.Weight(), optW)
	}
}

// --- Algorithm 4 -----------------------------------------------------------

func TestDecomposeSimpleWalk(t *testing.T) {
	g := graph.MustNew(4, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1},
	})
	m := matching.MustNew(g, graph.UniformBudgets(4, 1))
	_ = m.Add(1)
	w := matching.Walk{EdgeIDs: []int32{0, 1, 2}, Start: 0}
	comps, err := DecomposeWalk(w, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 1 || len(comps[0].EdgeIDs) != 3 {
		t.Fatalf("simple walk decomposed into %d components", len(comps))
	}
}

func TestDecomposeSplitsCycle(t *testing.T) {
	// Walk 0→1→2→3→1→4: revisits vertex 1 after an even cycle 1-2-3-1?
	// That cycle has 3 edges (odd) — use a 4-cycle instead:
	// 0→1→2→3→4(=1)→5: vertices 0,1,2,3,1,5 with edges forming an even
	// alternating cycle 1-2-3-1? A 4-cycle needs 4 edges: 1→2→3→4→1.
	// Build: walk 0→1→2→3→4→1→5, edges: e0={0,1} u, e1={1,2} m, e2={2,3} u,
	// e3={3,4} m, e4={4,1} u, e5={1,5} m. Cycle 1-2-3-4-1 has 4 edges
	// (m,u,m,u after e0) — even, alternating: split off.
	g := graph.MustNew(6, []graph.Edge{
		{U: 0, V: 1, W: 1}, // e0 unmatched
		{U: 1, V: 2, W: 1}, // e1 matched
		{U: 2, V: 3, W: 1}, // e2 unmatched
		{U: 3, V: 4, W: 1}, // e3 matched
		{U: 4, V: 1, W: 1}, // e4 unmatched
		{U: 1, V: 5, W: 1}, // e5 matched
	})
	m := matching.MustNew(g, graph.Budgets{1, 3, 1, 1, 1, 1})
	_ = m.Add(1)
	_ = m.Add(3)
	_ = m.Add(5)
	w := matching.Walk{EdgeIDs: []int32{0, 1, 2, 3, 4, 5}, Start: 0}
	comps, err := DecomposeWalk(w, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 2 {
		t.Fatalf("decomposed into %d components, want cycle + path", len(comps))
	}
	// One component must be the 4-edge cycle, the other the 2-edge path.
	lens := map[int]bool{len(comps[0].EdgeIDs): true, len(comps[1].EdgeIDs): true}
	if !lens[4] || !lens[2] {
		t.Fatalf("component lengths: %d and %d, want 4 and 2",
			len(comps[0].EdgeIDs), len(comps[1].EdgeIDs))
	}
	// Union of edges must be the original walk's edges exactly once.
	seen := map[int32]int{}
	for _, c := range comps {
		for _, e := range c.EdgeIDs {
			seen[e]++
		}
	}
	if len(seen) != 6 {
		t.Fatalf("components cover %d distinct edges, want 6", len(seen))
	}
	for e, c := range seen {
		if c != 1 {
			t.Fatalf("edge %d appears %d times (Lemma 5.6(2) violated)", e, c)
		}
	}
}

func TestDecomposeRejectsRepeatedEdge(t *testing.T) {
	g := graph.MustNew(3, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}})
	m := matching.MustNew(g, graph.UniformBudgets(3, 2))
	_ = m.Add(1)
	w := matching.Walk{EdgeIDs: []int32{0, 1, 0}, Start: 0}
	if _, err := DecomposeWalk(w, m); err == nil {
		t.Fatal("repeated-edge walk accepted")
	}
}

func TestBestComponentPicksLargestGain(t *testing.T) {
	g := graph.MustNew(4, []graph.Edge{
		{U: 0, V: 1, W: 5}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 2},
	})
	m := matching.MustNew(g, graph.UniformBudgets(4, 1))
	_ = m.Add(1)
	w := matching.Walk{EdgeIDs: []int32{0, 1, 2}, Start: 0}
	best, err := BestComponent(w, m)
	if err != nil {
		t.Fatal(err)
	}
	if best == nil || len(best.EdgeIDs) != 3 {
		t.Fatal("best component wrong")
	}
}

// --- Instance growth -------------------------------------------------------

func TestGrowCandidatesValidAndDisjoint(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := rng.New(seed)
		g := graph.GnmWeighted(30, 120, 0.5, 5, r.Split())
		b := graph.RandomBudgets(30, 1, 3, r.Split())
		m := matching.MustNew(g, b)
		// Mediocre start: add even edges greedily.
		for e := 0; e < g.M(); e += 2 {
			if m.CanAdd(int32(e)) {
				_ = m.Add(int32(e))
			}
		}
		in := buildInstanceScratch(m, 4, r.Split(), nil)
		cands := in.growScratch(r.Split(), nil)
		mc := m.Clone()
		for _, c := range cands {
			if c.Gain <= 0 {
				t.Fatal("non-positive gain candidate returned")
			}
			if err := c.Walk.CheckAlternating(m); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			before := mc.Weight()
			if err := c.Walk.Apply(mc); err != nil {
				t.Fatalf("seed %d: joint application failed: %v", seed, err)
			}
			if gotGain := mc.Weight() - before; math.Abs(gotGain-c.Gain) > 1e-9 {
				t.Fatalf("seed %d: reported gain %v, realized %v", seed, c.Gain, gotGain)
			}
		}
		if err := mc.Validate(); err != nil {
			t.Fatal(err)
		}
		if mc.Weight() < m.Weight()-1e-9 {
			t.Fatal("candidates decreased total weight")
		}
	}
}

// --- Conflict resolution ---------------------------------------------------

func TestResolveWithinDropsConflicts(t *testing.T) {
	// Two candidates adding edges at the same budget-1 vertex: only one kept.
	g := graph.Star(3)
	b := graph.Budgets{1, 1, 1}
	m := matching.MustNew(g, b)
	c1 := Candidate{Walk: matching.Walk{EdgeIDs: []int32{0}, Start: 1}, Gain: 1}
	c2 := Candidate{Walk: matching.Walk{EdgeIDs: []int32{1}, Start: 2}, Gain: 1}
	kept := ResolveWithin([]Candidate{c1, c2}, m, 1, rng.New(1), 1)
	if len(kept) != 1 {
		t.Fatalf("kept %d, want 1", len(kept))
	}
}

func TestResolveWithinSampling(t *testing.T) {
	g := graph.Path(2)
	m := matching.MustNew(g, graph.UniformBudgets(2, 1))
	c := Candidate{Walk: matching.Walk{EdgeIDs: []int32{0}, Start: 0}, Gain: 1}
	keptCount := 0
	r := rng.New(5)
	for i := 0; i < 1000; i++ {
		if len(ResolveWithin([]Candidate{c}, m, 0.3, r.Split(), 1)) == 1 {
			keptCount++
		}
	}
	if keptCount < 200 || keptCount > 400 {
		t.Fatalf("keepProb=0.3 kept %d/1000", keptCount)
	}
}

func TestWeightClass(t *testing.T) {
	if WeightClass(1, 2) != 0 {
		t.Fatal("class of 1")
	}
	if WeightClass(8, 2) != 3 {
		t.Fatal("class of 8 base 2")
	}
	if WeightClass(0, 2) >= 0 {
		t.Fatal("class of 0 should be -inf-ish")
	}
}

func TestResolveBetweenPrefersHeavier(t *testing.T) {
	// Conflicting candidates with gains 10 and 1 in well-separated classes:
	// the group containing class(10) must win and keep the heavy one.
	g := graph.MustNew(2, []graph.Edge{{U: 0, V: 1, W: 10}, {U: 0, V: 1, W: 1}})
	// Parallel edges are rejected by New? They're not: New only checks
	// self-loops/range/weight. Both edges share endpoints, b=1: conflict.
	m := matching.MustNew(g, graph.UniformBudgets(2, 1))
	c1 := Candidate{Walk: matching.Walk{EdgeIDs: []int32{0}, Start: 0}, Gain: 10}
	c2 := Candidate{Walk: matching.Walk{EdgeIDs: []int32{1}, Start: 0}, Gain: 1}
	kept := ResolveBetween([]Candidate{c1, c2}, m, 2, 4)
	total := 0.0
	for _, c := range kept {
		total += c.Gain
	}
	if total < 10 {
		t.Fatalf("between-resolution kept gain %v, want ≥ 10", total)
	}
}

func TestApplyAllRealizesGain(t *testing.T) {
	g := graph.MustNew(4, []graph.Edge{
		{U: 0, V: 1, W: 3}, {U: 2, V: 3, W: 4},
	})
	m := matching.MustNew(g, graph.UniformBudgets(4, 1))
	cands := []Candidate{
		{Walk: matching.Walk{EdgeIDs: []int32{0}, Start: 0}, Gain: 3},
		{Walk: matching.Walk{EdgeIDs: []int32{1}, Start: 2}, Gain: 4},
	}
	applied, gain := ApplyAll(cands, m)
	if applied != 2 || math.Abs(gain-7) > 1e-9 {
		t.Fatalf("applied=%d gain=%v", applied, gain)
	}
}

// --- Driver quality --------------------------------------------------------

func TestWeightedDriverSmallOptimum(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := rng.New(seed)
		g := graph.GnmWeighted(9, 14, 0.5, 4, r.Split())
		b := graph.RandomBudgets(9, 1, 2, r.Split())
		_, optW := exact.BruteForce(g, b)
		res, err := OnePlusEpsWeightedCtx(context.Background(), g, b, nil, DefaultParams(0.2), r.Split())
		if err != nil {
			t.Fatal(err)
		}
		if err := res.M.Validate(); err != nil {
			t.Fatal(err)
		}
		if res.M.Weight() < optW/1.2-1e-9 {
			t.Fatalf("seed %d: weight %v vs optimum %v", seed, res.M.Weight(), optW)
		}
		if res.M.Weight() > optW+1e-9 {
			t.Fatalf("seed %d: impossible weight %v > optimum %v", seed, res.M.Weight(), optW)
		}
	}
}

func TestWeightedDriverBipartite(t *testing.T) {
	r := rng.New(77)
	g := graph.BipartiteWeighted(20, 20, 150, 0.5, 5, r.Split())
	b := graph.RandomBudgets(40, 1, 3, r.Split())
	optW, err := exact.MaxWeightBipartite(g, b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := OnePlusEpsWeightedCtx(context.Background(), g, b, nil, DefaultParams(0.25), r.Split())
	if err != nil {
		t.Fatal(err)
	}
	if res.M.Weight() < optW/1.25-1e-9 {
		t.Fatalf("weight %v below (1+ε)-share of optimum %v", res.M.Weight(), optW)
	}
}

func TestWeightedDriverNeverDecreases(t *testing.T) {
	f := func(seed int64) bool {
		r := rng.New(seed)
		g := graph.GnmWeighted(12, 30, 0.5, 3, r.Split())
		b := graph.RandomBudgets(12, 1, 2, r.Split())
		res, err := OnePlusEpsWeightedCtx(context.Background(), g, b, nil,
			Params{Eps: 0.5, Batch: 2, Retries: 2, MaxRetries: 8, MaxRounds: 20}, r.Split())
		if err != nil {
			return false
		}
		return res.M.Validate() == nil && res.WeightEnd >= res.WeightStart-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedDriverFixesGreedyTrap(t *testing.T) {
	// Classic greedy trap: path with weights 3-4-3. Greedy takes the middle
	// (4); optimum takes both ends (6). Needs a 3-walk swap.
	g := graph.MustNew(4, []graph.Edge{
		{U: 0, V: 1, W: 3}, {U: 1, V: 2, W: 4}, {U: 2, V: 3, W: 3},
	})
	b := graph.UniformBudgets(4, 1)
	res, err := OnePlusEpsWeightedCtx(context.Background(), g, b, nil, DefaultParams(0.2), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if res.M.Weight() != 6 {
		t.Fatalf("weight %v, want 6", res.M.Weight())
	}
}

func TestParamsDefaults(t *testing.T) {
	p := Params{}.withDefaults()
	if p.Eps <= 0 || p.K < 2 || p.Batch <= 0 || p.KeepProb != 1 ||
		p.ClassBase <= 1 || p.Spread <= 1 || p.MaxRounds <= 0 {
		t.Fatalf("defaults: %+v", p)
	}
}
