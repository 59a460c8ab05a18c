package augment

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/rng"
)

// TestFigure1 reproduces Figure 1 of the paper: Decompress over
// b_u=4, b_v=2, b_w=1 yields copies u1..u4, v1, v2, w1, and Compress maps
// them back (Definition 4.3: Compress(Decompress(V,b)) = V).
func TestFigure1(t *testing.T) {
	b := graph.Budgets{4, 2, 1} // u=0, v=1, w=2
	copies := Decompress(b)
	if len(copies) != 7 {
		t.Fatalf("|V'| = %d, want Σb = 7", len(copies))
	}
	counts := map[int32]int{}
	for _, c := range copies {
		counts[c.V]++
		if c.Idx < 0 || int(c.Idx) >= b[c.V] {
			t.Fatalf("copy index %d out of range for b=%d", c.Idx, b[c.V])
		}
	}
	if counts[0] != 4 || counts[1] != 2 || counts[2] != 1 {
		t.Fatalf("copy counts = %v", counts)
	}
	back := Compress(copies)
	if len(back) != 3 {
		t.Fatalf("Compress returned %d vertices, want 3", len(back))
	}
	for i, v := range []int32{0, 1, 2} {
		if back[i] != v {
			t.Fatalf("Compress order = %v", back)
		}
	}
}

func TestCompressDropsZeroBudget(t *testing.T) {
	b := graph.Budgets{0, 2}
	copies := Decompress(b)
	if len(copies) != 2 {
		t.Fatalf("copies = %v", copies)
	}
	vs := Compress(copies)
	if len(vs) != 1 || vs[0] != 1 {
		t.Fatalf("Compress = %v", vs)
	}
}

func buildMatched(t *testing.T, seed int64, n, m, bmax int) *matching.BMatching {
	t.Helper()
	r := rng.New(seed)
	g := graph.Gnm(n, m, r.Split())
	b := graph.RandomBudgets(n, 1, bmax, r.Split())
	mm := matching.MustNew(g, b)
	for e := 0; e < g.M(); e++ {
		if mm.CanAdd(int32(e)) {
			_ = mm.Add(int32(e))
		}
	}
	return mm
}

func TestAssignSlotsValid(t *testing.T) {
	m := buildMatched(t, 1, 40, 200, 3)
	sa := AssignSlots(m)
	checkSlots(t, m, sa)
}

func TestAssignSlotsMPCMatchesLocal(t *testing.T) {
	m := buildMatched(t, 2, 40, 200, 3)
	local := AssignSlots(m)
	dist, stats := AssignSlotsMPC(m, 4, 0)
	checkSlots(t, m, dist)
	g := m.Graph()
	for e := 0; e < g.M(); e++ {
		if local.SlotU[e] != dist.SlotU[e] || local.SlotV[e] != dist.SlotV[e] {
			t.Fatalf("edge %d: local (%d,%d) vs MPC (%d,%d)",
				e, local.SlotU[e], local.SlotV[e], dist.SlotU[e], dist.SlotV[e])
		}
	}
	if stats.Rounds == 0 || stats.Rounds > 6 {
		t.Fatalf("Lemma 4.7 should cost O(1) rounds, used %d", stats.Rounds)
	}
}

// checkSlots verifies the Section 4.2 requirement: slots in range, and no
// copy receives two matched edges.
func checkSlots(t *testing.T, m *matching.BMatching, sa SlotAssignment) {
	t.Helper()
	g := m.Graph()
	b := m.Budgets()
	used := map[[2]int32]bool{}
	for e := 0; e < g.M(); e++ {
		if !m.Contains(int32(e)) {
			if sa.SlotU[e] != -1 || sa.SlotV[e] != -1 {
				t.Fatalf("unmatched edge %d has slots", e)
			}
			continue
		}
		ed := g.Edges[e]
		if sa.SlotU[e] < 0 || int(sa.SlotU[e]) >= b[ed.U] {
			t.Fatalf("edge %d slotU %d out of range b=%d", e, sa.SlotU[e], b[ed.U])
		}
		if sa.SlotV[e] < 0 || int(sa.SlotV[e]) >= b[ed.V] {
			t.Fatalf("edge %d slotV %d out of range b=%d", e, sa.SlotV[e], b[ed.V])
		}
		ku := [2]int32{ed.U, sa.SlotU[e]}
		kv := [2]int32{ed.V, sa.SlotV[e]}
		if used[ku] || used[kv] {
			t.Fatalf("copy reused at edge %d", e)
		}
		used[ku] = true
		used[kv] = true
	}
}

// TestHConstructionAugmentsToOptimum is the structural theorem of Section
// 4.2 in executable form: for a greedy M and brute-force optimum M*, the
// H-graph's augmenting walks applied to M reach |M*|.
func TestHConstructionAugmentsToOptimum(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		r := rng.New(seed)
		g := graph.Gnm(8, 13, r.Split())
		b := graph.RandomBudgets(8, 1, 3, r.Split())
		m := matching.MustNew(g, b)
		for e := 0; e < g.M(); e++ {
			if m.CanAdd(int32(e)) {
				_ = m.Add(int32(e))
			}
		}
		optSize, _ := exact.BruteForce(g, b)

		// Find an optimal matching by brute force (re-derive edges).
		mstar := bruteForceMatching(g, b)
		if mstar.Size() != optSize {
			t.Fatalf("internal: brute matching %d != opt %d", mstar.Size(), optSize)
		}
		h, err := BuildH(m, mstar)
		if err != nil {
			t.Fatal(err)
		}
		walks := h.AugmentingWalks(m)
		if len(walks) != optSize-m.Size() {
			t.Fatalf("seed %d: %d augmenting walks for gap %d", seed, len(walks), optSize-m.Size())
		}
		for _, w := range walks {
			if err := w.Apply(m); err != nil {
				t.Fatalf("seed %d: applying structural walk: %v", seed, err)
			}
		}
		if m.Size() != optSize {
			t.Fatalf("seed %d: after structural augmentation size=%d, want %d", seed, m.Size(), optSize)
		}
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// bruteForceMatching returns an optimal (cardinality) b-matching by
// branch and bound, reconstructing the edge set.
func bruteForceMatching(g *graph.Graph, b graph.Budgets) *matching.BMatching {
	deg := make([]int, g.N)
	best := []int32{}
	var cur []int32
	var rec func(i int)
	rec = func(i int) {
		if len(cur) > len(best) {
			best = append([]int32(nil), cur...)
		}
		if i == g.M() || len(cur)+(g.M()-i) <= len(best) {
			return
		}
		ed := g.Edges[i]
		if deg[ed.U] < b[ed.U] && deg[ed.V] < b[ed.V] {
			deg[ed.U]++
			deg[ed.V]++
			cur = append(cur, int32(i))
			rec(i + 1)
			cur = cur[:len(cur)-1]
			deg[ed.U]--
			deg[ed.V]--
		}
		rec(i + 1)
	}
	rec(0)
	m := matching.MustNew(g, b)
	for _, e := range best {
		if err := m.Add(e); err != nil {
			panic(err)
		}
	}
	return m
}

func TestBuildHRejectsDifferentGraphs(t *testing.T) {
	g1 := graph.Path(3)
	g2 := graph.Path(3)
	m1 := matching.MustNew(g1, graph.UniformBudgets(3, 1))
	m2 := matching.MustNew(g2, graph.UniformBudgets(3, 1))
	if _, err := BuildH(m1, m2); err == nil {
		t.Fatal("different graph instances accepted")
	}
}

func TestLayeredGrowWalksAreValid(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		r := rng.New(seed)
		g := graph.Gnm(30, 120, r.Split())
		b := graph.RandomBudgets(30, 1, 3, r.Split())
		m := matching.MustNew(g, b)
		// Partial greedy so free vertices remain.
		for e := 0; e < g.M(); e += 2 {
			if m.CanAdd(int32(e)) {
				_ = m.Add(int32(e))
			}
		}
		for k := 1; k <= 3; k++ {
			L := buildLayeredScratch(m, k, r.Split(), nil)
			walks := L.growScratch(r.Split(), nil)
			for _, w := range walks {
				if l := len(w.EdgeIDs); l%2 == 0 || l > 2*k+1 {
					t.Fatalf("walk length %d, want odd and ≤ %d", l, 2*k+1)
				}
				if err := w.CheckAlternating(m); err != nil {
					t.Fatalf("seed %d k %d: %v", seed, k, err)
				}
			}
			// All walks from one instance must apply together.
			before := m.Size()
			mc := m.Clone()
			for _, w := range walks {
				if err := w.Apply(mc); err != nil {
					t.Fatalf("seed %d k %d: joint application failed: %v", seed, k, err)
				}
			}
			if mc.Size() != before+len(walks) {
				t.Fatalf("size after walks: %d, want %d", mc.Size(), before+len(walks))
			}
			if err := mc.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestOnePlusEpsReachesOptimumSmall(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		r := rng.New(seed)
		g := graph.Gnm(10, 18, r.Split())
		b := graph.RandomBudgets(10, 1, 2, r.Split())
		opt, _ := exact.BruteForce(g, b)
		res, err := OnePlusEpsCtx(context.Background(), g, b, nil, DefaultParams(0.2), r.Split())
		if err != nil {
			t.Fatal(err)
		}
		if err := res.M.Validate(); err != nil {
			t.Fatal(err)
		}
		// ε = 0.2 ⇒ size ≥ opt/1.2; on graphs this small the driver should
		// in fact hit the optimum.
		if float64(res.M.Size()) < float64(opt)/1.2 {
			t.Fatalf("seed %d: size %d vs opt %d", seed, res.M.Size(), opt)
		}
	}
}

func TestOnePlusEpsBipartiteQuality(t *testing.T) {
	r := rng.New(100)
	g := graph.Bipartite(25, 25, 200, r.Split())
	b := graph.RandomBudgets(50, 1, 3, r.Split())
	opt, err := exact.MaxBipartite(g, b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := OnePlusEpsCtx(context.Background(), g, b, nil, DefaultParams(0.25), r.Split())
	if err != nil {
		t.Fatal(err)
	}
	if float64(res.M.Size()) < float64(opt)/1.25 {
		t.Fatalf("size %d below (1+ε)-share of optimum %d", res.M.Size(), opt)
	}
	if res.M.Size() > opt {
		t.Fatalf("impossible: size %d exceeds optimum %d", res.M.Size(), opt)
	}
}

func TestOnePlusEpsImprovesOverGreedyAdversarial(t *testing.T) {
	// Path of length 3 with the middle edge matched: greedy from the middle
	// edge is maximal at size 1; the optimum is 2. The driver must fix it.
	g := graph.MustNew(4, []graph.Edge{
		{U: 1, V: 2, W: 1}, {U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1},
	})
	b := graph.UniformBudgets(4, 1)
	m := matching.MustNew(g, b)
	_ = m.Add(0) // middle edge; maximal
	res, err := OnePlusEpsCtx(context.Background(), g, b, m, DefaultParams(0.4), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.M.Size() != 2 {
		t.Fatalf("driver failed to find the length-3 augmenting path: size %d", res.M.Size())
	}
}

func TestOnePlusEpsDefaults(t *testing.T) {
	p := Params{}.withDefaults()
	if p.Eps <= 0 || p.RetriesPerK <= 0 || p.StallSweeps <= 0 || p.MaxSweeps <= 0 {
		t.Fatalf("defaults not applied: %+v", p)
	}
	if DefaultParams(0.5).MaxK() != 4 {
		t.Fatalf("MaxK(0.5) = %d, want 4", DefaultParams(0.5).MaxK())
	}
}

// Property: driver never violates feasibility and never decreases size.
func TestOnePlusEpsFeasibilityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rng.New(seed)
		g := graph.Gnm(15, 40, r.Split())
		b := graph.RandomBudgets(15, 1, 3, r.Split())
		res, err := OnePlusEpsCtx(context.Background(), g, b, nil, Params{Eps: 0.5, RetriesPerK: 3, MaxSweeps: 10, StallSweeps: 2}, r.Split())
		if err != nil {
			return false
		}
		return res.M.Validate() == nil && res.SizeEnd >= res.SizeStart
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
