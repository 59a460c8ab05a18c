package weighted

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/rng"
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
		in := buildInstanceScratch(m, 1, r.Split(), nil)
		cands := in.growScratch(r.Split(), nil)
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
		in := buildInstanceScratch(m, 3, r.Split(), nil)
		if cands := in.growScratch(r.Split(), nil); len(cands) != 0 {
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
