package stream

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/rng"
)

func toMatching(t *testing.T, g *graph.Graph, b graph.Budgets, ids []int32) *matching.BMatching {
	t.Helper()
	m := matching.MustNew(g, b)
	for _, id := range ids {
		if err := m.Add(id); err != nil {
			t.Fatalf("streaming output invalid: %v", err)
		}
	}
	return m
}

func TestSliceStream(t *testing.T) {
	g := graph.Path(4)
	s := NewSliceStream(g)
	if s.Len() != 3 {
		t.Fatal("Len")
	}
	count := 0
	for {
		id, e, ok := s.Next()
		if !ok {
			break
		}
		if g.Edges[id] != e {
			t.Fatal("id/edge mismatch")
		}
		count++
	}
	if count != 3 {
		t.Fatalf("streamed %d edges", count)
	}
	s.Reset()
	if _, _, ok := s.Next(); !ok {
		t.Fatal("Reset failed")
	}
}

// PermutedStream streams edges in a fixed permuted order, for
// order-robustness tests (streaming guarantees must not depend on arrival
// order).
type PermutedStream struct {
	g    *graph.Graph
	perm []int
	pos  int
}

// NewPermutedStream returns a stream over g's edges in the order perm.
func NewPermutedStream(g *graph.Graph, perm []int) *PermutedStream {
	return &PermutedStream{g: g, perm: perm}
}

// Reset implements Stream.
func (s *PermutedStream) Reset() { s.pos = 0 }

// Next implements Stream.
func (s *PermutedStream) Next() (int32, graph.Edge, bool) {
	if s.pos >= len(s.perm) {
		return 0, graph.Edge{}, false
	}
	id := int32(s.perm[s.pos])
	e := s.g.Edges[id]
	s.pos++
	return id, e, true
}

// Len implements Stream.
func (s *PermutedStream) Len() int { return len(s.perm) }

func TestPermutedStream(t *testing.T) {
	g := graph.Path(5)
	perm := []int{3, 0, 2, 1}
	s := NewPermutedStream(g, perm)
	var got []int32
	for {
		id, _, ok := s.Next()
		if !ok {
			break
		}
		got = append(got, id)
	}
	for i, want := range perm {
		if got[i] != int32(want) {
			t.Fatalf("order = %v", got)
		}
	}
}

func TestMeter(t *testing.T) {
	var m Meter
	m.Charge(10)
	m.Charge(5)
	m.Release(12)
	if m.Peak() != 15 || m.cur != 3 {
		t.Fatalf("peak=%d cur=%d", m.Peak(), m.cur)
	}
	m.Release(3)
	if m.cur != 0 || m.Peak() != 15 {
		t.Fatalf("after full release: peak=%d cur=%d", m.Peak(), m.cur)
	}
}

// TestMeterReleasePanicsOnOverRelease pins the accounting invariant: an
// over-release must fail loudly instead of clamping, so streaming
// peak-memory tables cannot be built on corrupted balances.
func TestMeterReleasePanicsOnOverRelease(t *testing.T) {
	var m Meter
	m.Charge(5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative retained balance")
		}
	}()
	m.Release(6)
}

// TestMeterChargePanicsOnNegative: a negative charge is a disguised release
// and must hit the same invariant.
func TestMeterChargePanicsOnNegative(t *testing.T) {
	var m Meter
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative charge")
		}
	}()
	m.Charge(-1)
}

func TestGreedyOnePassValidMaximal(t *testing.T) {
	r := rng.New(1)
	g := graph.Gnm(60, 400, r.Split())
	b := graph.RandomBudgets(60, 1, 3, r.Split())
	res := GreedyOnePass(NewSliceStream(g), g.N, b)
	m := toMatching(t, g, b, res.EdgeIDs)
	for e := int32(0); int(e) < g.M(); e++ {
		if m.CanAdd(e) {
			t.Fatal("one-pass greedy not maximal")
		}
	}
	if res.Passes != 1 {
		t.Fatalf("passes = %d", res.Passes)
	}
}

func TestGreedyOnePassMemoryBound(t *testing.T) {
	// Peak words ≤ n (degrees) + 3·Σb_v (stored edges ≤ Σb_v/2 each 3 words,
	// generously bounded).
	r := rng.New(2)
	g := graph.Gnm(100, 2000, r.Split())
	b := graph.UniformBudgets(100, 2)
	res := GreedyOnePass(NewSliceStream(g), g.N, b)
	bound := int64(g.N) + 3*int64(b.Sum())
	if res.PeakWords > bound {
		t.Fatalf("peak %d exceeds Õ(Σb) bound %d", res.PeakWords, bound)
	}
	if res.PeakWords >= int64(3*g.M()) {
		t.Fatalf("peak %d is Ω(m): not semi-streaming", res.PeakWords)
	}
}

func TestGreedyTwoApproxAgainstExact(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := rng.New(seed)
		g := graph.Bipartite(10, 10, 40, r.Split())
		b := graph.RandomBudgets(20, 1, 2, r.Split())
		opt, err := exact.MaxBipartite(g, b)
		if err != nil {
			t.Fatal(err)
		}
		res := GreedyOnePass(NewSliceStream(g), g.N, b)
		if 2*res.Size < opt {
			t.Fatalf("seed %d: greedy %d < opt/2 (%d)", seed, res.Size, opt)
		}
	}
}

func TestMultiPassUnweightedImproves(t *testing.T) {
	r := rng.New(10)
	g := graph.Bipartite(20, 20, 120, r.Split())
	b := graph.RandomBudgets(40, 1, 2, r.Split())
	opt, err := exact.MaxBipartite(g, b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := OnePlusEpsCtx(context.Background(), NewSliceStream(g), g.N, b, Params{Eps: 0.25}, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	m := toMatching(t, g, b, res.EdgeIDs)
	if float64(m.Size()) < float64(opt)/1.25 {
		t.Fatalf("streaming size %d below (1+ε) share of %d", m.Size(), opt)
	}
	if res.Passes < 2 {
		t.Fatalf("multi-pass used %d passes", res.Passes)
	}
}

func TestMultiPassMemoryStaysSubLinearInM(t *testing.T) {
	r := rng.New(11)
	// Dense graph, tiny budgets: m ≫ Σb_v.
	g := graph.Gnm(80, 2500, r.Split())
	b := graph.UniformBudgets(80, 1)
	res, err := OnePlusEpsCtx(context.Background(), NewSliceStream(g), g.N, b,
		Params{Eps: 0.5, MaxSweeps: 4, RetriesPerK: 2, MaxRetries: 4}, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakWords >= int64(g.M()) {
		t.Fatalf("peak %d words ≥ m = %d: per-edge state is being stored", res.PeakWords, g.M())
	}
}

func TestMultiPassWeightedImproves(t *testing.T) {
	r := rng.New(12)
	g := graph.BipartiteWeighted(15, 15, 100, 0.5, 5, r.Split())
	b := graph.RandomBudgets(30, 1, 2, r.Split())
	optW, err := exact.MaxWeightBipartite(g, b)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 0.25
	res, err := OnePlusEpsWeightedCtx(context.Background(), NewSliceStream(g), g.N, b, Params{Eps: eps}, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	// Greedy alone guarantees only 1/2; the multi-pass driver promises
	// the (1+ε) ratio of the package doc.
	m := toMatching(t, g, b, res.EdgeIDs)
	if m.Weight() < optW/(1+eps) {
		t.Fatalf("streaming weight %v below optimum %v / (1+ε), ε = %v", m.Weight(), optW, eps)
	}
}

func TestStreamingOrderInvariantValidity(t *testing.T) {
	// Whatever the arrival order, the output must be a valid b-matching.
	f := func(seed int64) bool {
		r := rng.New(seed)
		g := graph.Gnm(25, 100, r.Split())
		b := graph.RandomBudgets(25, 1, 3, r.Split())
		perm := r.Perm(g.M())
		res, err := OnePlusEpsCtx(context.Background(), NewPermutedStream(g, perm), g.N, b,
			Params{Eps: 0.5, MaxSweeps: 3, RetriesPerK: 2, MaxRetries: 4}, r.Split())
		if err != nil {
			return false
		}
		m := matching.MustNew(g, b)
		for _, id := range res.EdgeIDs {
			if err := m.Add(id); err != nil {
				return false
			}
		}
		return m.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamingDeterministic(t *testing.T) {
	r1 := rng.New(33)
	r2 := rng.New(33)
	g := graph.Gnm(30, 150, rng.New(5))
	b := graph.UniformBudgets(30, 2)
	p := Params{Eps: 0.5, MaxSweeps: 3, RetriesPerK: 2, MaxRetries: 4}
	a, err := OnePlusEpsCtx(context.Background(), NewSliceStream(g), g.N, b, p, r1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := OnePlusEpsCtx(context.Background(), NewSliceStream(g), g.N, b, p, r2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Size != c.Size || len(a.EdgeIDs) != len(c.EdgeIDs) {
		t.Fatalf("nondeterministic: %d vs %d", a.Size, c.Size)
	}
	for i := range a.EdgeIDs {
		if a.EdgeIDs[i] != c.EdgeIDs[i] {
			t.Fatal("nondeterministic edge sets")
		}
	}
}

func TestParamsWithDefaults(t *testing.T) {
	p := Params{}.withDefaults()
	if p.Eps <= 0 || p.RetriesPerK <= 0 || p.MaxRetries < p.RetriesPerK ||
		p.MaxSweeps <= 0 {
		t.Fatalf("defaults: %+v", p)
	}
}

func TestStreamZeroBudgets(t *testing.T) {
	g := graph.Gnm(20, 60, rng.New(40))
	b := make(graph.Budgets, 20)
	res, err := OnePlusEpsCtx(context.Background(), NewSliceStream(g), g.N, b,
		Params{Eps: 0.5, MaxSweeps: 2, RetriesPerK: 1, MaxRetries: 1}, rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	if res.Size != 0 {
		t.Fatal("matched edges despite zero budgets")
	}
}

func TestStreamEmptyStream(t *testing.T) {
	g := graph.MustNew(5, nil)
	res, err := OnePlusEpsCtx(context.Background(), NewSliceStream(g), g.N, graph.UniformBudgets(5, 2),
		Params{Eps: 0.5, MaxSweeps: 2, RetriesPerK: 1, MaxRetries: 1}, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if res.Size != 0 || res.Passes < 1 {
		t.Fatalf("empty stream result: %+v", res)
	}
}

func TestGreedyZeroBudgetVertices(t *testing.T) {
	r := rng.New(43)
	g := graph.Gnm(30, 120, r.Split())
	b := graph.RandomBudgets(30, 0, 2, r.Split())
	res := GreedyOnePass(NewSliceStream(g), g.N, b)
	m := toMatching(t, g, b, res.EdgeIDs)
	for v := 0; v < g.N; v++ {
		if b[v] == 0 && m.MatchedDeg(int32(v)) != 0 {
			t.Fatal("zero-budget vertex matched")
		}
	}
}

func TestStreamWeightedFixesGreedyTrap(t *testing.T) {
	// 3-4-3 path: streaming weighted improvement must reach 6.
	g := graph.MustNew(4, []graph.Edge{
		{U: 0, V: 1, W: 3}, {U: 1, V: 2, W: 4}, {U: 2, V: 3, W: 3},
	})
	b := graph.UniformBudgets(4, 1)
	res, err := OnePlusEpsWeightedCtx(context.Background(), NewSliceStream(g), g.N, b, Params{Eps: 0.25}, rng.New(44))
	if err != nil {
		t.Fatal(err)
	}
	if res.Weight != 6 {
		t.Fatalf("stream weighted got %v, want 6", res.Weight)
	}
}

// TestMeterReleasePanicsOnNegativeAmount: Release(-w) is a disguised charge
// that would raise the balance without moving the peak.
func TestMeterReleasePanicsOnNegativeAmount(t *testing.T) {
	var m Meter
	m.Charge(10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative release amount")
		}
	}()
	m.Release(-5)
}
