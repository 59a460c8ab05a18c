package weighted

import (
	"context"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/rng"
	"repro/internal/scratch"
)

func TestDriverZeroWeightEdges(t *testing.T) {
	// Zero-weight edges are legal; the driver must not add them for "gain"
	// nor crash on them.
	g := graph.MustNew(4, []graph.Edge{
		{U: 0, V: 1, W: 0}, {U: 1, V: 2, W: 5}, {U: 2, V: 3, W: 0},
	})
	b := graph.UniformBudgets(4, 1)
	res, err := OnePlusEpsWeightedCtx(context.Background(), g, b, nil, DefaultParams(0.5), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.M.Weight() != 5 {
		t.Fatalf("weight %v, want 5", res.M.Weight())
	}
}

// TestDriverAlreadyOptimalStopsOnCertificate: a maximum-weight start is
// proven optimal after the first round, which applies nothing.
func TestDriverAlreadyOptimalStopsOnCertificate(t *testing.T) {
	g := graph.MustNew(4, []graph.Edge{{U: 0, V: 1, W: 3}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 2}})
	res, err := OnePlusEpsWeightedCtx(context.Background(), g, graph.UniformBudgets(4, 1), nil, DefaultParams(0.5), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Certified || res.Rounds != 1 || res.WalksApplied != 0 || res.M.Weight() != 5 {
		t.Fatalf("certified=%v rounds=%d walks=%d weight=%v, want a certified stop after 1 round at weight 5",
			res.Certified, res.Rounds, res.WalksApplied, res.M.Weight())
	}
}

// TestDriverTiesFallBackToStall: where a tie or an odd cycle keeps the
// certificate silent, the stall rule stops the driver, and Rounds,
// Instances and the matching are the values the driver gave before the
// certificate existed.
func TestDriverTiesFallBackToStall(t *testing.T) {
	cases := []struct {
		name                     string
		g                        *graph.Graph
		rounds, instances, walks int
		edges                    []int32
	}{
		// 0.1 + 0.2 − 0.3 is 5.6e-17 in float, so the driver applies the
		// walk that trades {12} for {01, 23}, and more after it.
		{"decimal tie", graph.MustNew(4, []graph.Edge{{U: 0, V: 1, W: 0.1}, {U: 1, V: 2, W: 0.3}, {U: 2, V: 3, W: 0.2}}),
			10, 3360, 5, []int32{0, 2}},
		// Fill never adds the zero-weight edge, and no walk gains by it.
		{"addable zero-weight edge", graph.MustNew(4, []graph.Edge{{U: 0, V: 1, W: 5}, {U: 2, V: 3, W: 0}}),
			7, 3024, 0, []int32{0}},
		{"C5", graph.Cycle(5), 7, 3024, 0, []int32{0, 2}},
	}
	for _, tc := range cases {
		res, err := OnePlusEpsWeightedCtx(context.Background(), tc.g, graph.UniformBudgets(tc.g.N, 1), nil, DefaultParams(0.5), rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		if res.Certified {
			t.Errorf("%s: certified", tc.name)
		}
		if matching.CertifyMaxWeight(res.M) {
			t.Errorf("%s: final matching certifies", tc.name)
		}
		if res.Rounds != tc.rounds || res.Instances != tc.instances || res.WalksApplied != tc.walks {
			t.Errorf("%s: rounds=%d instances=%d walks=%d, want the stall rule's %d/%d/%d",
				tc.name, res.Rounds, res.Instances, res.WalksApplied, tc.rounds, tc.instances, tc.walks)
		}
		if got := res.M.Edges(); !slices.Equal(got, tc.edges) {
			t.Errorf("%s: edges %v, want %v", tc.name, got, tc.edges)
		}
	}
}

func TestDriverZeroBudgets(t *testing.T) {
	r := rng.New(2)
	g := graph.GnmWeighted(15, 40, 1, 5, r.Split())
	b := make(graph.Budgets, 15) // all zero
	res, err := OnePlusEpsWeightedCtx(context.Background(), g, b, nil, DefaultParams(0.5), r.Split())
	if err != nil {
		t.Fatal(err)
	}
	if res.M.Size() != 0 {
		t.Fatal("matched edges despite zero budgets")
	}
}

func TestDriverMultigraphPicksHeavyParallel(t *testing.T) {
	// Two parallel edges, budgets 1: the heavier must win.
	g := graph.MustNew(2, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 0, V: 1, W: 9}})
	b := graph.UniformBudgets(2, 1)
	res, err := OnePlusEpsWeightedCtx(context.Background(), g, b, nil, DefaultParams(0.5), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.M.Weight() != 9 {
		t.Fatalf("weight %v, want 9", res.M.Weight())
	}
}

func TestDriverPaperKeepProb(t *testing.T) {
	// Exercise the paper's small sampling probability regime: progress is
	// slower but correctness must hold.
	r := rng.New(4)
	g := graph.GnmWeighted(12, 30, 1, 5, r.Split())
	b := graph.RandomBudgets(12, 1, 2, r.Split())
	p := DefaultParams(0.5)
	p.KeepProb = 0.1
	p.MaxRounds = 40
	res, err := OnePlusEpsWeightedCtx(context.Background(), g, b, nil, p, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.M.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.WeightEnd < res.WeightStart {
		t.Fatal("weight decreased")
	}
}

func TestInstanceKOne(t *testing.T) {
	// K=1: only matched-start single-arc walks and length-1 augmentations.
	r := rng.New(5)
	g := graph.GnmWeighted(20, 60, 1, 5, r.Split())
	b := graph.RandomBudgets(20, 1, 2, r.Split())
	m := matching.MustNew(g, b)
	for e := 0; e < g.M(); e += 2 {
		if m.CanAdd(int32(e)) {
			_ = m.Add(int32(e))
		}
	}
	for trial := 0; trial < 20; trial++ {
		ar := new(scratch.Arena)
		in := buildInstanceScratch(m, 1, r.Split(), ar)
		cands := in.growScratch(r.Split(), ar)
		mc := m.Clone()
		for _, c := range cands {
			if err := c.Walk.Apply(mc); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
	}
}

func TestGainDecreasingNeverApplied(t *testing.T) {
	// On a graph where the matching is weight-optimal, no candidate with
	// positive gain can exist.
	g := graph.MustNew(4, []graph.Edge{
		{U: 0, V: 1, W: 10}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 10},
	})
	b := graph.UniformBudgets(4, 1)
	m := matching.MustNew(g, b)
	_ = m.Add(0)
	_ = m.Add(2)
	r := rng.New(6)
	for trial := 0; trial < 50; trial++ {
		ar := new(scratch.Arena)
		in := buildInstanceScratch(m, 3, r.Split(), ar)
		if cands := in.growScratch(r.Split(), ar); len(cands) != 0 {
			t.Fatalf("positive-gain candidate on an optimal matching: %+v", cands[0])
		}
	}
}

// DecomposeWalk property: components partition the edges and each is a
// valid alternating walk, over randomly generated alternating walks.
func TestDecomposePropertyRandomWalks(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 200; trial++ {
		g := graph.Gnm(10, 25, r.Split())
		b := graph.RandomBudgets(10, 1, 3, r.Split())
		m := matching.MustNew(g, b)
		for e := 0; e < g.M(); e++ {
			if r.Bool() && m.CanAdd(int32(e)) {
				_ = m.Add(int32(e))
			}
		}
		// Random alternating walk: start anywhere, alternate membership.
		start := int32(r.Intn(g.N))
		cur := start
		wantMatched := r.Bool()
		var ids []int32
		used := map[int32]bool{}
		for len(ids) < 9 {
			var next int32 = -1
			inc := g.Incident(cur)
			off := r.Intn(len(inc) + 1)
			for i := 0; i < len(inc); i++ {
				e := inc[(i+off)%len(inc)]
				if used[e] || m.Contains(e) != wantMatched {
					continue
				}
				next = e
				break
			}
			if next < 0 {
				break
			}
			used[next] = true
			ids = append(ids, next)
			cur = g.Edges[next].Other(cur)
			wantMatched = !wantMatched
		}
		if len(ids) == 0 {
			continue
		}
		w := matching.Walk{EdgeIDs: ids, Start: start}
		comps, err := DecomposeWalk(w, m)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		seen := map[int32]int{}
		total := 0
		for _, c := range comps {
			if err := c.CheckAlternating(m); err != nil {
				t.Fatalf("trial %d: component invalid: %v", trial, err)
			}
			for _, e := range c.EdgeIDs {
				seen[e]++
				total++
			}
		}
		if total != len(ids) {
			t.Fatalf("trial %d: components cover %d of %d edges", trial, total, len(ids))
		}
		for e, c := range seen {
			if c != 1 {
				t.Fatalf("trial %d: edge %d duplicated", trial, e)
			}
		}
	}
}
