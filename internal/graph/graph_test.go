package graph

import (
	"cmp"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestNewRejectsBadEdges(t *testing.T) {
	if _, err := New(3, []Edge{{U: 1, V: 1, W: 1}}); err == nil {
		t.Fatal("self-loop accepted")
	}
	if _, err := New(3, []Edge{{U: 0, V: 5, W: 1}}); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
	if _, err := New(3, []Edge{{U: 0, V: 1, W: -2}}); err == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestAdjacencyConsistent(t *testing.T) {
	g := Gnm(50, 200, rng.New(1))
	total := 0
	for v := 0; v < g.N; v++ {
		inc := g.Incident(int32(v))
		if len(inc) != g.Deg(int32(v)) {
			t.Fatalf("vertex %d: len(Incident)=%d, Deg=%d", v, len(inc), g.Deg(int32(v)))
		}
		total += len(inc)
		for _, e := range inc {
			if !g.Edges[e].Has(int32(v)) {
				t.Fatalf("edge %d listed at vertex %d but not incident", e, v)
			}
		}
	}
	if total != 2*g.M() {
		t.Fatalf("handshake: Σdeg = %d, want %d", total, 2*g.M())
	}
}

func TestAvgAndMaxDeg(t *testing.T) {
	g := Star(10)
	if g.MaxDeg() != 9 {
		t.Fatalf("star max degree = %d, want 9", g.MaxDeg())
	}
	if got, want := g.AvgDeg(), 2.0*9/10; got != want {
		t.Fatalf("star avg degree = %v, want %v", got, want)
	}
}

func TestGnmProperties(t *testing.T) {
	g := Gnm(100, 500, rng.New(2))
	if g.M() != 500 {
		t.Fatalf("Gnm produced %d edges, want 500", g.M())
	}
	seen := map[[2]int32]bool{}
	for _, e := range g.Edges {
		if e.U == e.V {
			t.Fatal("self-loop in Gnm")
		}
		k := [2]int32{e.U, e.V}
		if e.U > e.V {
			k = [2]int32{e.V, e.U}
		}
		if seen[k] {
			t.Fatal("duplicate edge in Gnm")
		}
		seen[k] = true
	}
}

func TestGnmPanicsWhenOverfull(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Gnm(3, 4, rng.New(1))
}

func TestBipartiteDetection(t *testing.T) {
	g := Bipartite(10, 12, 40, rng.New(3))
	side, ok := g.IsBipartite()
	if !ok {
		t.Fatal("Bipartite generator output not detected as bipartite")
	}
	for _, e := range g.Edges {
		if side[e.U] == side[e.V] {
			t.Fatal("2-coloring invalid")
		}
	}
	if _, ok := Cycle(5).IsBipartite(); ok {
		t.Fatal("odd cycle reported bipartite")
	}
	if _, ok := Cycle(6).IsBipartite(); !ok {
		t.Fatal("even cycle reported non-bipartite")
	}
}

func TestChungLuSkew(t *testing.T) {
	g := ChungLu(400, 1200, 2.5, rng.New(4))
	if g.M() == 0 {
		t.Fatal("ChungLu produced empty graph")
	}
	if g.MaxDeg() <= int(2*g.AvgDeg()) {
		t.Fatalf("ChungLu not skewed: max %d vs avg %.1f", g.MaxDeg(), g.AvgDeg())
	}
}

func TestClientServerBudgets(t *testing.T) {
	g, b := ClientServer(50, 10, 4, 3, 20, rng.New(5))
	if err := b.Validate(g); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 50; v++ {
		if b[v] < 1 || b[v] > 3 {
			t.Fatalf("client budget out of range: %d", b[v])
		}
	}
	for v := 50; v < g.N; v++ {
		if b[v] < 1 || b[v] > 20 {
			t.Fatalf("server budget out of range: %d", b[v])
		}
	}
	for _, e := range g.Edges {
		if (e.U < 50) == (e.V < 50) {
			t.Fatal("client-server edge within one side")
		}
	}
}

func TestBudgetsHelpers(t *testing.T) {
	b := UniformBudgets(4, 3)
	if b.Sum() != 12 {
		t.Fatalf("Sum=%d", b.Sum())
	}
	g := Star(4)
	bad := Budgets{1, -1, 0, 0}
	if err := bad.Validate(g); err == nil {
		t.Fatal("negative budget accepted")
	}
	short := Budgets{1}
	if err := short.Validate(g); err == nil {
		t.Fatal("wrong-length budget accepted")
	}
}

func TestSubgraphMapping(t *testing.T) {
	g := Gnm(20, 50, rng.New(6))
	keep := []int32{3, 7, 11}
	sub, orig := g.Subgraph(keep)
	if sub.M() != 3 {
		t.Fatalf("subgraph has %d edges", sub.M())
	}
	for i, e := range keep {
		if orig[i] != e {
			t.Fatal("orig mapping wrong")
		}
		if sub.Edges[i] != g.Edges[e] {
			t.Fatal("edge content changed")
		}
	}
}

// TestSortEdgesByWeightDesc pins the whole order, not just its monotonicity:
// descending weight, ties by ascending id, and -0.0 tied with +0.0, as a
// stable comparison sort on < orders them.
func TestSortEdgesByWeightDesc(t *testing.T) {
	withWeights := func(ws ...float64) *Graph {
		edges := make([]Edge, len(ws))
		for i, w := range ws {
			edges[i] = Edge{U: int32(i % 7), V: int32(i%7 + 1), W: w}
		}
		return MustNew(8, edges)
	}
	heavyTies := Gnm(200, 2000, rng.New(8))
	r := rng.New(9)
	for i := range heavyTies.Edges {
		heavyTies.Edges[i].W = float64(r.Intn(5))
	}
	negZero := math.Copysign(0, -1)
	sub := math.SmallestNonzeroFloat64
	market, _ := AssignmentMarket(300, 40, 6, rng.New(3))
	social, _ := PowerLawSocial(500, 4000, 2.3, rng.New(5))
	skew, _ := AdversarialSkew(600, 5000, rng.New(9))
	cases := []struct {
		name string
		g    *Graph
	}{
		{"gnm-weighted", GnmWeighted(30, 100, 0, 10, rng.New(7))},
		{"integer-ties", heavyTies},
		{"all-equal", Gnm(100, 500, rng.New(10))},
		{"signed-zeros", withWeights(0, negZero, 1, negZero, 0, 0, negZero, 2, negZero, 0)},
		{"extremes", withWeights(sub, math.MaxFloat64, 0, 2*sub, 0x1p-1022, sub, 1, math.MaxFloat64, 0x1p-1030, negZero)},
		{"m=0", MustNew(3, nil)},
		{"m=1", withWeights(3.5)},
		{"assignment-market", market},
		{"power-law-social", social},
		{"adversarial-skew", skew},
	}
	for _, tc := range cases {
		want := make([]int32, tc.g.M())
		for i := range want {
			want[i] = int32(i)
		}
		slices.SortStableFunc(want, func(a, b int32) int {
			return cmp.Compare(tc.g.Edges[b].W, tc.g.Edges[a].W)
		})
		if got := SortEdgesByWeightDesc(tc.g); !slices.Equal(got, want) {
			t.Errorf("%s: order differs from the stable descending-weight sort", tc.name)
		}
	}
}

func TestFloatsConversion(t *testing.T) {
	f := func(b0, b1, b2 uint8) bool {
		b := Budgets{int(b0), int(b1), int(b2)}
		fl := b.Floats()
		for i := range b {
			if fl[i] != float64(b[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGenerators(t *testing.T) {
	if Path(5).M() != 4 {
		t.Fatal("path edge count")
	}
	if Cycle(5).M() != 5 {
		t.Fatal("cycle edge count")
	}
	if Complete(6).M() != 15 {
		t.Fatal("complete edge count")
	}
	b := RandomBudgets(100, 2, 5, rng.New(9))
	for _, x := range b {
		if x < 2 || x > 5 {
			t.Fatalf("random budget %d out of [2,5]", x)
		}
	}
}

func TestBipartiteWeightedRange(t *testing.T) {
	g := BipartiteWeighted(5, 5, 10, 1, 2, rng.New(10))
	for _, e := range g.Edges {
		if e.W < 1 || e.W >= 2 {
			t.Fatalf("weight %v out of [1,2)", e.W)
		}
	}
}

// TestWeightedGeneratorsRejectBadRange: a range that can draw a weight
// CheckEdge rejects (negative, NaN or infinite) panics before any draw,
// since the weighted generators write weights after New checked the edges.
func TestWeightedGeneratorsRejectBadRange(t *testing.T) {
	gens := []struct {
		name string
		gen  func(lo, hi float64)
	}{
		{"GnmWeighted", func(lo, hi float64) { GnmWeighted(20, 40, lo, hi, rng.New(1)) }},
		{"BipartiteWeighted", func(lo, hi float64) { BipartiteWeighted(5, 5, 10, lo, hi, rng.New(1)) }},
	}
	inf, nan := math.Inf(1), math.NaN()
	for _, rg := range [][2]float64{{-1, 1}, {1, -1}, {nan, 1}, {0, nan}, {0, inf}, {-inf, 1}} {
		for _, g := range gens {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s with weights in [%v, %v) did not panic", g.name, rg[0], rg[1])
					}
				}()
				g.gen(rg[0], rg[1])
			}()
		}
	}
}

// TestBuildAdjParallelMatchesSerial pins that the sharded parallel CSR
// construction produces a bit-identical layout to the serial one, for
// several worker counts, on a graph above the parallel threshold.
func TestBuildAdjParallelMatchesSerial(t *testing.T) {
	r := rng.New(42)
	n := 5000
	m := parallelAdjMin + 1234
	g := Gnm(n, m, r)

	ref := &Graph{N: g.N, Edges: g.Edges}
	ref.buildAdjSerial()

	for _, workers := range []int{2, 3, 8, 16, 64} {
		p := &Graph{N: g.N, Edges: g.Edges}
		p.buildAdjWorkers(workers)
		if len(p.adjStart) != len(ref.adjStart) || len(p.adjEdges) != len(ref.adjEdges) {
			t.Fatalf("workers=%d: index sizes differ", workers)
		}
		for v := range ref.adjStart {
			if p.adjStart[v] != ref.adjStart[v] {
				t.Fatalf("workers=%d: adjStart[%d] = %d, want %d", workers, v, p.adjStart[v], ref.adjStart[v])
			}
		}
		for i := range ref.adjEdges {
			if p.adjEdges[i] != ref.adjEdges[i] {
				t.Fatalf("workers=%d: adjEdges[%d] = %d, want %d", workers, i, p.adjEdges[i], ref.adjEdges[i])
			}
		}
	}
}

func BenchmarkBuildAdj(b *testing.B) {
	g := Gnm(200000, 2000000, rng.New(9))
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h := &Graph{N: g.N, Edges: g.Edges}
				if bc.workers == 1 {
					h.buildAdjSerial()
				} else {
					h.buildAdjWorkers(bc.workers)
				}
			}
		})
	}
}

// MaxDeg returns the maximum degree Δ.
func (g *Graph) MaxDeg() int {
	max := 0
	for v := 0; v < g.N; v++ {
		if d := g.Deg(int32(v)); d > max {
			max = d
		}
	}
	return max
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	var edges []Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, Edge{U: int32(u), V: int32(v), W: 1})
		}
	}
	return MustNew(n, edges)
}
