// External test package on purpose: the golden determinism hashes pin the
// canonical graphio encoding of each generated instance, and graphio
// imports graph — hashing through it from inside package graph would be an
// import cycle.
package graph_test

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/rng"
)

// instanceHash is the canonical content hash of an instance: sha256 over
// the BMG1 encoding — the same bytes the engine's instance cache keys on.
func instanceHash(g *graph.Graph, b graph.Budgets) string {
	sum := sha256.Sum256(graphio.AppendBinaryTo(nil, g, b))
	return hex.EncodeToString(sum[:])
}

// TestFamiliesGoldenHashes pins per-seed determinism of every family as
// committed content hashes of the canonical encoding. A change to any
// family's draw order, edge order, weights, or budgets is a corpus-breaking
// change and must update these constants (and invalidates committed
// loadgen baselines that replay those corpora).
func TestFamiliesGoldenHashes(t *testing.T) {
	cases := []struct {
		name string
		want string
		gen  func(r *rng.RNG) (*graph.Graph, graph.Budgets)
	}{
		{
			name: "assignment/seed=7",
			want: "3bddeac349351b46ee55dcd9fbccb7575f7361e43718e923f319ec5f78d3ddca",
			gen: func(r *rng.RNG) (*graph.Graph, graph.Budgets) {
				return graph.AssignmentMarket(300, 40, 6, r)
			},
		},
		{
			name: "powerlaw/seed=7",
			want: "8056fb71009c2e7f0f45a1d3e2fd14546a747db065ff3992b74eab675e18d90e",
			gen: func(r *rng.RNG) (*graph.Graph, graph.Budgets) {
				return graph.PowerLawSocial(500, 4000, 2.3, r)
			},
		},
		{
			name: "skew/seed=7",
			want: "f688e42cb2f2c1bb70eac3f4457f003341052c8b7a7f5ccfad06e2c2571713b6",
			gen: func(r *rng.RNG) (*graph.Graph, graph.Budgets) {
				return graph.AdversarialSkew(600, 5000, r)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g1, b1 := tc.gen(rng.New(7))
			g2, b2 := tc.gen(rng.New(7))
			h1, h2 := instanceHash(g1, b1), instanceHash(g2, b2)
			if h1 != h2 {
				t.Fatalf("same seed, different instances: %s vs %s", h1, h2)
			}
			if h1 != tc.want {
				t.Fatalf("content hash drifted:\n got %s\nwant %s", h1, tc.want)
			}
			gOther, bOther := tc.gen(rng.New(8))
			if instanceHash(gOther, bOther) == h1 {
				t.Fatal("seed 8 produced the same instance as seed 7")
			}
		})
	}
}

// degrees returns the degree sequence sorted descending.
func degrees(g *graph.Graph) []int {
	deg := make([]int, g.N)
	for _, e := range g.Edges {
		deg[e.U]++
		deg[e.V]++
	}
	sort.Sort(sort.Reverse(sort.IntSlice(deg)))
	return deg
}

func TestAssignmentMarketShape(t *testing.T) {
	const workers, firms = 300, 40
	g, b := graph.AssignmentMarket(workers, firms, 6, rng.New(3))
	if g.N != workers+firms {
		t.Fatalf("n = %d", g.N)
	}
	if err := b.Validate(g); err != nil {
		t.Fatalf("budgets infeasible: %v", err)
	}
	demand, capacity := 0, 0
	for v := 0; v < workers; v++ {
		if b[v] < 1 || b[v] > 2 {
			t.Fatalf("worker %d budget %d outside [1,2]", v, b[v])
		}
		demand += b[v]
	}
	for v := workers; v < g.N; v++ {
		if b[v] < 1 {
			t.Fatalf("firm %d has zero capacity", v)
		}
		capacity += b[v]
	}
	// The market is drawn to be slightly over-provisioned (≈1.2× demand).
	if capacity < demand || capacity > 2*demand {
		t.Fatalf("capacity %d not in [demand, 2·demand] for demand %d", capacity, demand)
	}
	for i, e := range g.Edges {
		if (e.U < workers) == (e.V < workers) {
			t.Fatalf("edge %d = {%d,%d} does not cross the worker/firm cut", i, e.U, e.V)
		}
		if e.W <= 0 {
			t.Fatalf("edge %d has non-positive surplus %v", i, e.W)
		}
	}
	// Firm popularity is pay-proportional: the busiest firm should see far
	// more applications than an even split would give it.
	deg := degrees(g)
	even := 2 * g.M() / g.N
	if deg[0] < 3*even {
		t.Fatalf("max degree %d shows no popularity skew (even split ≈ %d)", deg[0], even)
	}
}

func TestPowerLawSocialTail(t *testing.T) {
	g, b := graph.PowerLawSocial(2000, 12000, 2.3, rng.New(5))
	if err := b.Validate(g); err != nil {
		t.Fatalf("budgets infeasible: %v", err)
	}
	deg := degrees(g)
	avg := 2 * float64(g.M()) / float64(g.N)
	// Power-law tail: the hubs must sit far above the mean, and the bulk
	// far below it (a near-regular graph fails both).
	if float64(deg[0]) < 5*avg {
		t.Fatalf("max degree %d < 5×avg %.1f — no heavy tail", deg[0], avg)
	}
	median := deg[len(deg)/2]
	if float64(median) > avg {
		t.Fatalf("median degree %d above the mean %.1f — distribution is not skewed", median, avg)
	}
	// Budgets follow connectivity: a hub may hold more than a tail vertex.
	for v := range b {
		if b[v] < 1 || b[v] > 32 {
			t.Fatalf("budget b[%d] = %d outside [1,32]", v, b[v])
		}
	}
}

func TestAdversarialSkewConcentration(t *testing.T) {
	const n, m = 2048, 20000
	g, b := graph.AdversarialSkew(n, m, rng.New(9))
	if g.M() != m {
		t.Fatalf("m = %d", g.M())
	}
	if err := b.Validate(g); err != nil {
		t.Fatalf("budgets infeasible: %v", err)
	}
	hubs := n / 256
	hubInc := 0
	for _, e := range g.Edges {
		if int(e.U) < hubs {
			hubInc++
		}
		if int(e.V) < hubs {
			hubInc++
		}
	}
	// Half the edges touch a hub by construction (one endpoint each), so
	// the tiny hub set holds ≥ m/2 of the 2m incidences — a quarter of all
	// incidences on <1% of the vertices.
	if hubInc < m/2 {
		t.Fatalf("hubs hold %d of %d incidences — skew missing", hubInc, 2*m)
	}
	deg := degrees(g)
	avg := 2 * float64(m) / float64(n)
	if float64(deg[0]) < 10*avg {
		t.Fatalf("max degree %d < 10×avg %.1f — not adversarial", deg[0], avg)
	}
}

// TestFamiliesFeasibleUnderGreedy solves each family's instance with the
// exact per-vertex budget accounting of a direct greedy scan and checks a
// non-empty feasible b-matching exists — generated budgets must leave room
// to match, not just validate.
func TestFamiliesFeasibleUnderGreedy(t *testing.T) {
	families := []struct {
		name string
		gen  func(r *rng.RNG) (*graph.Graph, graph.Budgets)
	}{
		{"assignment", func(r *rng.RNG) (*graph.Graph, graph.Budgets) {
			return graph.AssignmentMarket(200, 30, 5, r)
		}},
		{"powerlaw", func(r *rng.RNG) (*graph.Graph, graph.Budgets) {
			return graph.PowerLawSocial(400, 3000, 2.3, r)
		}},
		{"skew", func(r *rng.RNG) (*graph.Graph, graph.Budgets) {
			return graph.AdversarialSkew(512, 4000, r)
		}},
	}
	for _, fam := range families {
		name := fam.name
		g, b := fam.gen(rng.New(11))
		used := make([]int, g.N)
		size := 0
		for _, e := range g.Edges {
			if used[e.U] < b[e.U] && used[e.V] < b[e.V] {
				used[e.U]++
				used[e.V]++
				size++
			}
		}
		if size == 0 {
			t.Fatalf("%s: greedy scan matched nothing — budgets leave no feasible matching", name)
		}
		for v := range used {
			if used[v] > b[v] {
				t.Fatalf("%s: vertex %d over budget", name, v)
			}
		}
	}
}
