// Package graph provides the graph substrate shared by all algorithms in
// this repository: an undirected (optionally weighted) graph with integer
// vertex ids, per-vertex b-matching budgets, and the workload generators
// used by the experiments.
//
// Representation: edges are stored once in a flat slice, and a CSR-style
// adjacency index maps each vertex to the ids of its incident edges. All
// algorithms address edges by their index in Edges, which makes fractional
// values (x ∈ R^E) plain float64 slices.
package graph

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/par"
)

// Edge is an undirected edge {U,V} with weight W. For unweighted problems
// W is 1. Self-loops are not allowed.
type Edge struct {
	U, V int32
	W    float64
}

// Other returns the endpoint of e different from v.
func (e Edge) Other(v int32) int32 {
	if e.U == v {
		return e.V
	}
	return e.U
}

// Has reports whether v is an endpoint of e.
func (e Edge) Has(v int32) bool { return e.U == v || e.V == v }

// Graph is an undirected graph on vertices 0..N-1.
type Graph struct {
	N     int
	Edges []Edge

	// adjStart/adjEdges form a CSR index: the incident edge ids of vertex v
	// are adjEdges[adjStart[v]:adjStart[v+1]]. Built by Finalize.
	adjStart []int32
	adjEdges []int32
}

// New returns a graph with n vertices and the given edges. The adjacency
// index is built immediately. It returns CheckEdge's error for the first
// invalid edge.
func New(n int, edges []Edge) (*Graph, error) {
	for i, e := range edges {
		if err := CheckEdge(n, i, e); err != nil {
			return nil, err
		}
	}
	g := &Graph{N: n, Edges: edges}
	g.buildAdj()
	return g, nil
}

// CheckEdge returns an error if e, as edge i of an n-vertex graph, is a
// self-loop, has an endpoint out of range, or has a negative, NaN or
// infinite weight.
func CheckEdge(n, i int, e Edge) error {
	if e.U == e.V {
		return fmt.Errorf("graph: edge %d is a self-loop at vertex %d", i, e.U)
	}
	if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
		return fmt.Errorf("graph: edge %d = {%d,%d} out of range for n=%d", i, e.U, e.V, n)
	}
	if e.W < 0 || math.IsNaN(e.W) || math.IsInf(e.W, 0) {
		return fmt.Errorf("graph: edge %d has invalid weight %v", i, e.W)
	}
	return nil
}

// MustNew is New that panics on error; for use in tests and generators that
// construct edges known to be valid.
func MustNew(n int, edges []Edge) *Graph {
	g, err := New(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// parallelAdjMin is the edge count below which buildAdj stays serial: the
// sharded passes pay O(shards·n) extra memory and synchronization, which
// only amortizes on large instances.
const parallelAdjMin = 1 << 16

func (g *Graph) buildAdj() { g.buildAdjWorkers(0) }

// buildAdjWorkers builds the CSR index on a pool of workers goroutines
// (workers ≤ 0 selects GOMAXPROCS). The layout is bit-for-bit identical for
// every worker count: each vertex's incident edge ids appear in increasing
// edge-id order, exactly as the serial construction emits them.
func (g *Graph) buildAdjWorkers(workers int) {
	m := len(g.Edges)
	n := g.N
	workers = par.PoolSize(workers)
	// Oversubscription guard: more workers than CPUs cannot speed up a
	// memory-bound build, but each extra shard still costs n counting words
	// and a merge column, so cap at GOMAXPROCS. On a single-CPU machine
	// this drops straight to the serial build — the parallel path's only
	// possible outcome there is overhead.
	if gm := runtime.GOMAXPROCS(0); workers > gm {
		workers = gm
	}
	// Sparse guard: the sharded passes allocate shards·n counting words, so
	// they only pay off when edges dominate vertices. Requiring m ≥ 2n and
	// capping shards at m/n bounds the transient arrays by ~4m bytes —
	// below the edge slice itself — so a large-n, low-m instance (easy to
	// request from the daemon) cannot blow up decode memory.
	if m < parallelAdjMin || m < 2*n || workers <= 1 {
		g.buildAdjSerial()
		return
	}
	shards := workers
	if shards > 16 {
		shards = 16
	}
	if shards > m/n {
		shards = m / n
	}

	// Pass 1 (parallel counting): shard s counts the incidences contributed
	// by its contiguous edge range [s·m/shards, (s+1)·m/shards).
	counts := make([][]int32, shards)
	par.ParallelFor(workers, shards, func(s int) {
		cnt := make([]int32, n)
		for _, e := range g.Edges[s*m/shards : (s+1)*m/shards] {
			cnt[e.U]++
			cnt[e.V]++
		}
		counts[s] = cnt
	})

	// Pass 2 (parallel per-vertex scan): fold the per-shard counts into
	// exclusive per-shard write bases and leave each vertex's total degree
	// in adjStart[v+1]. Fixed-grain blocks: boundaries don't depend on the
	// worker count (the layout never did either, but now the partition
	// itself is machine-independent too).
	adjStart := make([]int32, n+1)
	par.ParallelForBlocks(workers, n, 1<<14, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			var run int32
			for s := 0; s < shards; s++ {
				c := counts[s][v]
				counts[s][v] = run
				run += c
			}
			adjStart[v+1] = run
		}
	})
	for v := 0; v < n; v++ {
		adjStart[v+1] += adjStart[v]
	}

	// Pass 3 (parallel bucketing): every edge's slot is its rank —
	// adjStart[v] + incidences of v in earlier shards + incidences of v
	// earlier in this shard — so shards write disjoint positions and the
	// per-vertex order is increasing edge id, independent of scheduling.
	adjEdges := make([]int32, 2*m)
	par.ParallelFor(workers, shards, func(s int) {
		base := counts[s]
		for i := s * m / shards; i < (s+1)*m/shards; i++ {
			e := g.Edges[i]
			adjEdges[adjStart[e.U]+base[e.U]] = int32(i)
			base[e.U]++
			adjEdges[adjStart[e.V]+base[e.V]] = int32(i)
			base[e.V]++
		}
	})
	g.adjStart = adjStart
	g.adjEdges = adjEdges
}

func (g *Graph) buildAdjSerial() {
	deg := make([]int32, g.N+1)
	for _, e := range g.Edges {
		deg[e.U+1]++
		deg[e.V+1]++
	}
	for v := 0; v < g.N; v++ {
		deg[v+1] += deg[v]
	}
	g.adjStart = deg
	g.adjEdges = make([]int32, 2*len(g.Edges))
	fill := make([]int32, g.N)
	for i, e := range g.Edges {
		g.adjEdges[g.adjStart[e.U]+fill[e.U]] = int32(i)
		fill[e.U]++
		g.adjEdges[g.adjStart[e.V]+fill[e.V]] = int32(i)
		fill[e.V]++
	}
}

// M returns the number of edges.
func (g *Graph) M() int { return len(g.Edges) }

// Deg returns the degree of vertex v.
func (g *Graph) Deg(v int32) int {
	return int(g.adjStart[v+1] - g.adjStart[v])
}

// Incident returns the edge ids incident to v. The returned slice aliases
// internal storage and must not be modified.
func (g *Graph) Incident(v int32) []int32 {
	return g.adjEdges[g.adjStart[v]:g.adjStart[v+1]]
}

// DegreeBlocks appends to dst the boundary list of contiguous vertex blocks
// holding roughly grain incident edges each (first entry 0, last N): block b
// is [dst[b], dst[b+1]). Degree-balanced blocks let blocked kernels spread a
// skewed-degree graph's work instead of serializing behind the heaviest
// vertices' home block. Boundaries depend only on the graph and grain —
// never on a worker count — which is what makes per-block partial results
// combinable into a bit-identical total on any machine (the
// par.ParallelForBlocks contract).
func (g *Graph) DegreeBlocks(grain int, dst []int32) []int32 {
	dst = append(dst, 0)
	acc := 0
	for v := 0; v < g.N; v++ {
		acc += g.Deg(int32(v))
		if acc >= grain && v+1 < g.N {
			dst = append(dst, int32(v+1))
			acc = 0
		}
	}
	return append(dst, int32(g.N))
}

// AvgDeg returns the average degree d̄ = 2m/n. For an empty vertex set it
// returns 0.
func (g *Graph) AvgDeg() float64 {
	if g.N == 0 {
		return 0
	}
	return 2 * float64(len(g.Edges)) / float64(g.N)
}

// IsBipartite reports whether the graph is bipartite, and if so returns a
// 2-coloring side[v] ∈ {0,1}. Used by the exact flow-based comparators.
func (g *Graph) IsBipartite() (side []int8, ok bool) {
	side = make([]int8, g.N)
	for i := range side {
		side[i] = -1
	}
	queue := make([]int32, 0, g.N)
	for s := int32(0); int(s) < g.N; s++ {
		if side[s] != -1 {
			continue
		}
		side[s] = 0
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, ei := range g.Incident(v) {
				u := g.Edges[ei].Other(v)
				if side[u] == -1 {
					side[u] = 1 - side[v]
					queue = append(queue, u)
				} else if side[u] == side[v] {
					return nil, false
				}
			}
		}
	}
	return side, true
}

// Subgraph returns the graph restricted to the edge ids in keep (weights and
// vertex set preserved), together with the mapping from new edge ids to the
// original edge ids.
func (g *Graph) Subgraph(keep []int32) (*Graph, []int32) {
	edges := make([]Edge, len(keep))
	orig := make([]int32, len(keep))
	for i, ei := range keep {
		edges[i] = g.Edges[ei]
		orig[i] = ei
	}
	return MustNew(g.N, edges), orig
}

// Budgets is a per-vertex b-matching budget vector. Budgets[v] = bᵥ ≥ 0.
type Budgets []int

// UniformBudgets returns the budget vector with bᵥ = b for every vertex.
func UniformBudgets(n, b int) Budgets {
	out := make(Budgets, n)
	for i := range out {
		out[i] = b
	}
	return out
}

// Sum returns Σᵥ bᵥ, the B parameter of the streaming bounds.
func (b Budgets) Sum() int {
	s := 0
	for _, x := range b {
		s += x
	}
	return s
}

// Validate checks that budgets are non-negative and sized for g.
func (b Budgets) Validate(g *Graph) error {
	if len(b) != g.N {
		return fmt.Errorf("graph: budgets length %d != n %d", len(b), g.N)
	}
	for v, x := range b {
		if x < 0 {
			return fmt.Errorf("graph: negative budget b[%d] = %d", v, x)
		}
	}
	return nil
}

// Floats converts budgets to the real-valued b ∈ R^V used by the fractional
// LP algorithms of Section 3, which accept arbitrary non-negative reals.
func (b Budgets) Floats() []float64 {
	out := make([]float64, len(b))
	for i, x := range b {
		out[i] = float64(x)
	}
	return out
}

// sortDigitBits is the digit width of SortEdgesByWeightDesc's radix
// passes: six passes cover a 64-bit key, with a 2048-entry count table
// each. On 8,000-edge instances 8-bit digits were slower, and 16-bit digits
// twice as slow, their 1 MiB of tables costing more than the edges.
const sortDigitBits = 11

// SortEdgesByWeightDesc returns edge ids sorted by descending weight,
// breaking ties by ascending id for determinism; -0.0 ties with +0.0, as
// the two compare equal.
//
// It is an LSD radix sort, O(m) for m edges. Weight w maps to the key
// ^Float64bits(w) (+0.0's key for -0.0), whose ascending order is the
// descending order of the non-negative weights CheckEdge admits. One sweep
// computes the keys and the count table of every digit; each pass then
// moves ids only, stably, reading the keys, so ties keep the initial
// ascending id order. A pass whose digit is the same for every key is
// skipped. Scratch: the key array and a second id buffer, 12 bytes per edge
// beside the 4-byte result, and 48 KiB of count tables on the stack.
func SortEdgesByWeightDesc(g *Graph) []int32 {
	const (
		passes = (64 + sortDigitBits - 1) / sortDigitBits
		mask   = 1<<sortDigitBits - 1
	)
	m := len(g.Edges)
	ids := make([]int32, m)
	for i := range ids {
		ids[i] = int32(i)
	}
	if m < 2 {
		return ids
	}
	keys := make([]uint64, m)
	var counts [passes][1 << sortDigitBits]int32
	for i, e := range g.Edges {
		k := ^math.Float64bits(e.W)
		if e.W == 0 {
			k = ^uint64(0) // -0.0 gets +0.0's key
		}
		keys[i] = k
		for p := range counts {
			counts[p][k>>(p*sortDigitBits)&mask]++
		}
	}
	tmp := make([]int32, m)
	for p := range counts {
		c, shift := &counts[p], p*sortDigitBits
		if int(c[keys[0]>>shift&mask]) == m {
			continue
		}
		var sum int32
		for d, n := range c {
			c[d] = sum
			sum += n
		}
		for _, id := range ids {
			d := keys[id] >> shift & mask
			tmp[c[d]] = id
			c[d]++
		}
		ids, tmp = tmp, ids
	}
	return ids
}
