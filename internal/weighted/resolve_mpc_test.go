package weighted

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/rng"
)

func TestResolveWithinMPCRespectsEdgeConflicts(t *testing.T) {
	// Two candidates over the same edge: exactly one survives, the heavier.
	g := graph.MustNew(2, []graph.Edge{{U: 0, V: 1, W: 5}})
	m := matching.MustNew(g, graph.UniformBudgets(2, 1))
	c1 := Candidate{Walk: matching.Walk{EdgeIDs: []int32{0}, Start: 0}, Gain: 5}
	c2 := Candidate{Walk: matching.Walk{EdgeIDs: []int32{0}, Start: 1}, Gain: 3}
	kept, _ := ResolveWithinMPC([]Candidate{c2, c1}, m, 4, 0)
	if len(kept) != 1 || kept[0].Gain != 5 {
		t.Fatalf("kept %v", kept)
	}
}

func TestResolveWithinMPCRespectsBudgetCapacity(t *testing.T) {
	// Star hub with budget 3: of 10 single-edge candidates, exactly 3 must
	// survive (the hub slot capacity), and they must be the heaviest.
	const leaves = 10
	g := graph.Star(leaves + 1)
	b := make(graph.Budgets, leaves+1)
	b[0] = 3
	for i := 1; i <= leaves; i++ {
		b[i] = 1
	}
	m := matching.MustNew(g, b)
	var cands []Candidate
	for e := 0; e < leaves; e++ {
		g.Edges[e].W = float64(e + 1)
		cands = append(cands, Candidate{
			Walk: matching.Walk{EdgeIDs: []int32{int32(e)}, Start: int32(e + 1)},
			Gain: float64(e + 1),
		})
	}
	kept, stats := ResolveWithinMPC(cands, m, 4, 0)
	if len(kept) != 3 {
		t.Fatalf("kept %d candidates at hub capacity 3", len(kept))
	}
	for _, c := range kept {
		if c.Gain < float64(leaves-2) {
			t.Fatalf("kept a light candidate (gain %v) over heavier ones", c.Gain)
		}
	}
	if stats.Rounds == 0 || stats.Rounds > 10 {
		t.Fatalf("O(1)-round claim violated: %d rounds", stats.Rounds)
	}
}

func TestResolveWithinMPCSurvivorsJointlyApplicable(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := rng.New(seed)
		g := graph.GnmWeighted(25, 100, 0.5, 5, r.Split())
		b := graph.RandomBudgets(25, 1, 3, r.Split())
		m := matching.MustNew(g, b)
		for e := 0; e < g.M(); e += 3 {
			if m.CanAdd(int32(e)) {
				_ = m.Add(int32(e))
			}
		}
		// Candidates from several independent instances (so they conflict).
		var cands []Candidate
		for i := 0; i < 4; i++ {
			inst := buildInstanceScratch(m, 3, r.Split(), nil)
			cands = append(cands, inst.growScratch(r.Split(), nil)...)
		}
		kept, _ := ResolveWithinMPC(cands, m, 4, 0)
		mc := m.Clone()
		for _, c := range kept {
			if err := c.Walk.Apply(mc); err != nil {
				t.Fatalf("seed %d: survivor not applicable: %v", seed, err)
			}
		}
		if err := mc.Validate(); err != nil {
			t.Fatal(err)
		}
		if mc.Weight() < m.Weight() {
			t.Fatal("resolution decreased weight")
		}
	}
}

func TestResolveWithinMPCEmptyInput(t *testing.T) {
	g := graph.Path(3)
	m := matching.MustNew(g, graph.UniformBudgets(3, 1))
	kept, _ := ResolveWithinMPC(nil, m, 4, 0)
	if kept != nil {
		t.Fatal("expected nil for empty input")
	}
}

func TestResolveWithinMPCAgreesWithSequentialOnGain(t *testing.T) {
	// The MPC resolver (rank-based) and the sequential resolver (greedy
	// scratch) may keep different sets, but both must keep positive total
	// gain and valid sets; on conflict-free inputs they keep everything.
	g := graph.MustNew(6, []graph.Edge{
		{U: 0, V: 1, W: 2}, {U: 2, V: 3, W: 3}, {U: 4, V: 5, W: 4},
	})
	m := matching.MustNew(g, graph.UniformBudgets(6, 1))
	var cands []Candidate
	for e := 0; e < 3; e++ {
		cands = append(cands, Candidate{
			Walk: matching.Walk{EdgeIDs: []int32{int32(e)}, Start: g.Edges[e].U},
			Gain: g.Edges[e].W,
		})
	}
	keptMPC, _ := ResolveWithinMPC(cands, m, 4, 0)
	keptSeq := ResolveWithin(cands, m, 1, rng.New(1), 1)
	if len(keptMPC) != 3 || len(keptSeq) != 3 {
		t.Fatalf("conflict-free input lost candidates: mpc=%d seq=%d",
			len(keptMPC), len(keptSeq))
	}
}
