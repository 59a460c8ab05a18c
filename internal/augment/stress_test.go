package augment

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/rng"
)

// alternatingPathTrap builds a path of 2k+1 edges with every second edge
// matched: the unique improvement is the full-length augmenting walk with k
// matched edges — the hardest single instance for the layered search at
// that k.
func alternatingPathTrap(k int) (*graph.Graph, graph.Budgets, *matching.BMatching) {
	nEdges := 2*k + 1
	g := graph.Path(nEdges + 1)
	b := graph.UniformBudgets(g.N, 1)
	m := matching.MustNew(g, b)
	for e := 1; e < nEdges; e += 2 {
		if err := m.Add(int32(e)); err != nil {
			panic(err)
		}
	}
	return g, b, m
}

func TestDriverSolvesLongPathTraps(t *testing.T) {
	// k = 1, 2, 3: walks of alternating length 3, 5, 7. Success probability
	// per instance decays like (1/2)^O(k), so the adaptive escalation has
	// to kick in for the larger k.
	for k := 1; k <= 3; k++ {
		g, b, m := alternatingPathTrap(k)
		want := m.Size() + 1
		eps := 2.0 / float64(k) // MaxK == k exactly
		res, err := OnePlusEpsCtx(context.Background(), g, b, m, Params{
			Eps:            eps,
			RetriesPerK:    16,
			MaxRetriesPerK: 4096,
			StallSweeps:    4,
			MaxSweeps:      400,
		}, rng.New(int64(100+k)))
		if err != nil {
			t.Fatal(err)
		}
		if res.M.Size() != want {
			t.Fatalf("k=%d: driver stuck at %d, want %d (instances tried: %d)",
				k, res.M.Size(), want, res.Instances)
		}
	}
}

func TestDriverRoundAccounting(t *testing.T) {
	r := rng.New(9)
	g := graph.Gnm(30, 120, r.Split())
	b := graph.UniformBudgets(30, 1)
	res, err := OnePlusEpsCtx(context.Background(), g, b, nil, Params{Eps: 0.5, RetriesPerK: 2, MaxSweeps: 3, StallSweeps: 1, MaxRetriesPerK: 2}, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	if res.Instances == 0 || res.EstMPCRounds < res.Instances {
		t.Fatalf("round accounting missing: %+v", res)
	}
}

// Multiple disjoint traps at once: all must be fixed in one run.
func TestDriverSolvesParallelTraps(t *testing.T) {
	const copies = 10
	const k = 2
	unit := 2*k + 2 // vertices per trap
	var edges []graph.Edge
	for c := 0; c < copies; c++ {
		base := int32(c * unit)
		for i := 0; i < 2*k+1; i++ {
			edges = append(edges, graph.Edge{U: base + int32(i), V: base + int32(i+1), W: 1})
		}
	}
	g := graph.MustNew(copies*unit, edges)
	b := graph.UniformBudgets(g.N, 1)
	m := matching.MustNew(g, b)
	perTrap := 2*k + 1
	for c := 0; c < copies; c++ {
		for i := 1; i < perTrap; i += 2 {
			if err := m.Add(int32(c*perTrap + i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	start := m.Size()
	res, err := OnePlusEpsCtx(context.Background(), g, b, m, Params{
		Eps: 1, RetriesPerK: 16, MaxRetriesPerK: 2048, StallSweeps: 4, MaxSweeps: 300,
	}, rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	if res.M.Size() != start+copies {
		t.Fatalf("fixed %d of %d traps", res.M.Size()-start, copies)
	}
}
