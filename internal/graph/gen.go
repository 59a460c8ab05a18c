// Workload generators for the experiments. Every generator is deterministic
// given its *rng.RNG, and none produces self-loops or duplicate edges.
package graph

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Gnm returns an Erdős–Rényi-style random graph with n vertices and exactly
// m distinct edges chosen uniformly (rejection sampling). It panics if m
// exceeds the number of possible edges.
func Gnm(n, m int, r *rng.RNG) *Graph {
	maxM := n * (n - 1) / 2
	if m > maxM {
		panic(fmt.Sprintf("graph: Gnm(%d, %d): at most %d edges possible", n, m, maxM))
	}
	seen := make(map[uint64]struct{}, m)
	edges := make([]Edge, 0, m)
	for len(edges) < m {
		u := int32(r.Intn(n))
		v := int32(r.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := uint64(u)<<32 | uint64(v)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		edges = append(edges, Edge{U: u, V: v, W: 1})
	}
	return MustNew(n, edges)
}

// GnmWeighted is Gnm with i.i.d. uniform weights in [lo,hi). It panics
// unless both bounds are finite and ≥ 0 (see checkWeightRange).
func GnmWeighted(n, m int, lo, hi float64, r *rng.RNG) *Graph {
	checkWeightRange("GnmWeighted", lo, hi)
	g := Gnm(n, m, r)
	for i := range g.Edges {
		g.Edges[i].W = r.Uniform(lo, hi)
	}
	return g
}

// checkWeightRange panics unless every weight drawn from [lo,hi) passes
// CheckEdge: the weighted generators write their weights after New, so
// nothing else checks them.
func checkWeightRange(name string, lo, hi float64) {
	for _, w := range [...]float64{lo, hi} {
		if !(w >= 0) || math.IsInf(w, 1) {
			panic(fmt.Sprintf("graph: %s: weight range [%v, %v) needs finite bounds ≥ 0", name, lo, hi))
		}
	}
}

// ChungLu returns a power-law-ish random graph: vertex v gets target weight
// wᵥ ∝ (v+1)^(-1/(beta-1)) scaled so the expected edge count is ≈ m, and
// each candidate pair is included with probability min(1, wᵤwᵥ/Σw). Used by
// the ablation experiments that need skewed degree distributions.
func ChungLu(n, m int, beta float64, r *rng.RNG) *Graph {
	if beta <= 2 {
		beta = 2.1
	}
	w := make([]float64, n)
	var sum float64
	for v := 0; v < n; v++ {
		w[v] = math.Pow(float64(v+1), -1/(beta-1))
		sum += w[v]
	}
	// Scale so that Σᵤ<ᵥ wᵤwᵥ/S ≈ (Σw)²/(2S) = m, i.e. S = (Σw)²/(2m).
	scale := sum * sum / (2 * float64(m))
	// Sample edges by vertex pairs with probability wᵤwᵥ/scale, using the
	// standard O(n + m) skip-sampling over the sorted weight order would be
	// overkill at our scales; a direct pass over pairs is fine up to n ~ 3000,
	// and for larger n we sample endpoints proportionally to w.
	if n <= 3000 {
		var edges []Edge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				p := w[u] * w[v] / scale
				if p > 1 {
					p = 1
				}
				if r.Bernoulli(p) {
					edges = append(edges, Edge{U: int32(u), V: int32(v), W: 1})
				}
			}
		}
		return MustNew(n, edges)
	}
	// Large-n path: draw 2m endpoints from the weight distribution.
	cum := make([]float64, n)
	acc := 0.0
	for v := 0; v < n; v++ {
		acc += w[v]
		cum[v] = acc
	}
	pick := func() int32 {
		x := r.Uniform(0, acc)
		lo, hi := 0, n-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return int32(lo)
	}
	seen := make(map[uint64]struct{}, m)
	edges := make([]Edge, 0, m)
	attempts := 0
	for len(edges) < m && attempts < 50*m {
		attempts++
		u, v := pick(), pick()
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := uint64(u)<<32 | uint64(v)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		edges = append(edges, Edge{U: u, V: v, W: 1})
	}
	return MustNew(n, edges)
}

// Bipartite returns a random bipartite graph with nl left vertices
// (ids 0..nl-1), nr right vertices (ids nl..nl+nr-1), and m distinct edges.
func Bipartite(nl, nr, m int, r *rng.RNG) *Graph {
	maxM := nl * nr
	if m > maxM {
		panic(fmt.Sprintf("graph: Bipartite(%d, %d, %d): at most %d edges possible", nl, nr, m, maxM))
	}
	seen := make(map[uint64]struct{}, m)
	edges := make([]Edge, 0, m)
	for len(edges) < m {
		u := int32(r.Intn(nl))
		v := int32(nl + r.Intn(nr))
		key := uint64(u)<<32 | uint64(v)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		edges = append(edges, Edge{U: u, V: v, W: 1})
	}
	return MustNew(nl+nr, edges)
}

// BipartiteWeighted is Bipartite with i.i.d. uniform weights in [lo,hi).
// It panics unless both bounds are finite and ≥ 0 (see checkWeightRange).
func BipartiteWeighted(nl, nr, m int, lo, hi float64, r *rng.RNG) *Graph {
	checkWeightRange("BipartiteWeighted", lo, hi)
	g := Bipartite(nl, nr, m, r)
	for i := range g.Edges {
		g.Edges[i].W = r.Uniform(lo, hi)
	}
	return g
}

// ClientServer models the allocation workload from the paper's introduction:
// clients with small request budgets connect to servers with large,
// heterogeneous capacities. It returns the graph plus a budget vector where
// clients get budgets in [1, maxClientB] and servers in [1, maxServerB].
// Clients have ids 0..clients-1; servers follow.
func ClientServer(clients, servers, degree, maxClientB, maxServerB int, r *rng.RNG) (*Graph, Budgets) {
	seen := make(map[uint64]struct{})
	var edges []Edge
	for c := 0; c < clients; c++ {
		d := 1 + r.Intn(degree)
		for t := 0; t < d; t++ {
			s := int32(clients + r.Intn(servers))
			key := uint64(c)<<32 | uint64(s)
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			// Weight models request priority.
			edges = append(edges, Edge{U: int32(c), V: s, W: 1 + r.Float64()*9})
		}
	}
	g := MustNew(clients+servers, edges)
	b := make(Budgets, g.N)
	for v := 0; v < clients; v++ {
		b[v] = 1 + r.Intn(maxClientB)
	}
	for v := clients; v < g.N; v++ {
		b[v] = 1 + r.Intn(maxServerB)
	}
	return g, b
}

// Star returns a star with one hub (vertex 0) and leaves 1..n-1.
func Star(n int) *Graph {
	edges := make([]Edge, 0, n-1)
	for v := 1; v < n; v++ {
		edges = append(edges, Edge{U: 0, V: int32(v), W: 1})
	}
	return MustNew(n, edges)
}

// Path returns a path 0-1-...-n-1.
func Path(n int) *Graph {
	edges := make([]Edge, 0, n-1)
	for v := 0; v+1 < n; v++ {
		edges = append(edges, Edge{U: int32(v), V: int32(v + 1), W: 1})
	}
	return MustNew(n, edges)
}

// Cycle returns a cycle on n >= 3 vertices.
func Cycle(n int) *Graph {
	if n < 3 {
		panic("graph: Cycle needs n >= 3")
	}
	edges := make([]Edge, 0, n)
	for v := 0; v < n; v++ {
		edges = append(edges, Edge{U: int32(v), V: int32((v + 1) % n), W: 1})
	}
	return MustNew(n, edges)
}

// CoreFringe returns a graph made of a dense random core on the first
// nCore vertices (mCore edges) plus a sparse random fringe on the remaining
// nFringe vertices (mFringe edges, no core-fringe edges).
//
// This is the adversarial regime for the Section 3 processes: the core
// drives the average degree d̄ up, so fringe vertices get initial values
// q_v = 0.8·b_v/d̄ ≪ 0.2·b_v and stay loose for Θ(log d̄) doubling rounds —
// exactly the work round compression exists to compress. On near-regular
// graphs the initialization is already almost tight and every algorithm
// finishes in one step, which exercises nothing.
func CoreFringe(nCore, mCore, nFringe, mFringe int, r *rng.RNG) *Graph {
	core := Gnm(nCore, mCore, r)
	fringe := Gnm(nFringe, mFringe, r)
	edges := make([]Edge, 0, mCore+mFringe)
	edges = append(edges, core.Edges...)
	for _, e := range fringe.Edges {
		edges = append(edges, Edge{U: e.U + int32(nCore), V: e.V + int32(nCore), W: e.W})
	}
	return MustNew(nCore+nFringe, edges)
}

// RandomBudgets returns budgets drawn uniformly from [lo, hi].
func RandomBudgets(n, lo, hi int, r *rng.RNG) Budgets {
	if hi < lo {
		lo, hi = hi, lo
	}
	b := make(Budgets, n)
	for v := range b {
		b[v] = lo + r.Intn(hi-lo+1)
	}
	return b
}
