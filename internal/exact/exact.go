// Package exact provides ground-truth solvers the experiments compare the
// paper's algorithms against:
//
//   - BruteForce: branch-and-bound over edge subsets; exact maximum
//     (cardinality or weight) b-matching on any small graph.
//   - Dinic max-flow: exact maximum-cardinality b-matching on bipartite
//     graphs of any size used here.
//   - Min-cost-flow: exact maximum-weight b-matching on bipartite graphs.
//
// Exact general-graph weighted b-matching (Pulleyblank's algorithm) is out
// of scope: callers check general graphs against BruteForce on small
// instances, and larger ones only on bipartite graphs.
package exact

import (
	"fmt"

	"repro/internal/graph"
)

// BruteForce returns the maximum b-matching size and weight achievable on g
// (two separate optima: the maximum cardinality and the maximum total
// weight). It is exponential in m; callers should keep m ≲ 30.
func BruteForce(g *graph.Graph, b graph.Budgets) (maxSize int, maxWeight float64) {
	m := g.M()
	if m > 34 {
		panic(fmt.Sprintf("exact: BruteForce on m=%d edges would not terminate", m))
	}
	deg := make([]int, g.N)

	// Order edges by descending weight so weight-based pruning is effective.
	order := graph.SortEdgesByWeightDesc(g)
	// Suffix sums for pruning.
	sufW := make([]float64, m+1)
	for i := m - 1; i >= 0; i-- {
		sufW[i] = sufW[i+1] + g.Edges[order[i]].W
	}

	var bestSize int
	var bestWeight float64
	var rec func(i, size int, weight float64)
	rec = func(i, size int, weight float64) {
		if size > bestSize {
			bestSize = size
		}
		if weight > bestWeight {
			bestWeight = weight
		}
		if i == m {
			return
		}
		// Prune only when neither objective can improve.
		if size+(m-i) <= bestSize && weight+sufW[i] <= bestWeight {
			return
		}
		e := order[i]
		ed := g.Edges[e]
		if deg[ed.U] < b[ed.U] && deg[ed.V] < b[ed.V] {
			deg[ed.U]++
			deg[ed.V]++
			rec(i+1, size+1, weight+ed.W)
			deg[ed.U]--
			deg[ed.V]--
		}
		rec(i+1, size, weight)
	}
	rec(0, 0, 0)
	return bestSize, bestWeight
}

// MaxBipartite returns the exact maximum-cardinality b-matching size on a
// bipartite graph, computed by Dinic max-flow on the standard reduction
// (source→left with capacity b, unit edge capacities, right→sink with
// capacity b). It returns an error if g is not bipartite.
func MaxBipartite(g *graph.Graph, b graph.Budgets) (int, error) {
	side, ok := g.IsBipartite()
	if !ok {
		return 0, fmt.Errorf("exact: graph is not bipartite")
	}
	// Nodes: 0 = source, 1..n = vertices, n+1 = sink.
	d := newDinic(g.N + 2)
	src, snk := 0, g.N+1
	for v := 0; v < g.N; v++ {
		if b[v] == 0 {
			continue
		}
		if side[v] == 0 {
			d.addEdge(src, v+1, int64(b[v]))
		} else {
			d.addEdge(v+1, snk, int64(b[v]))
		}
	}
	for _, e := range g.Edges {
		u, v := int(e.U), int(e.V)
		if side[u] == 1 {
			u, v = v, u
		}
		d.addEdge(u+1, v+1, 1)
	}
	return int(d.maxflow(src, snk)), nil
}

// MaxWeightBipartite returns the exact maximum-weight b-matching weight on a
// bipartite graph via successive shortest augmenting paths on the min-cost
// flow network (augmenting while the best path still has positive profit).
func MaxWeightBipartite(g *graph.Graph, b graph.Budgets) (float64, error) {
	side, ok := g.IsBipartite()
	if !ok {
		return 0, fmt.Errorf("exact: graph is not bipartite")
	}
	mc := newMCMF(g.N + 2)
	src, snk := 0, g.N+1
	for v := 0; v < g.N; v++ {
		if b[v] == 0 {
			continue
		}
		if side[v] == 0 {
			mc.addEdge(src, v+1, int64(b[v]), 0)
		} else {
			mc.addEdge(v+1, snk, int64(b[v]), 0)
		}
	}
	for _, e := range g.Edges {
		u, v := int(e.U), int(e.V)
		if side[u] == 1 {
			u, v = v, u
		}
		mc.addEdge(u+1, v+1, 1, -e.W)
	}
	return -mc.maxProfitFlow(src, snk), nil
}

// ---------------------------------------------------------------- Dinic --

type dinicEdge struct {
	to, rev int
	cap     int64
}

type dinic struct {
	adj   [][]dinicEdge
	level []int
	iter  []int
}

func newDinic(n int) *dinic {
	return &dinic{adj: make([][]dinicEdge, n), level: make([]int, n), iter: make([]int, n)}
}

func (d *dinic) addEdge(from, to int, cap int64) {
	d.adj[from] = append(d.adj[from], dinicEdge{to: to, rev: len(d.adj[to]), cap: cap})
	d.adj[to] = append(d.adj[to], dinicEdge{to: from, rev: len(d.adj[from]) - 1, cap: 0})
}

func (d *dinic) bfs(s, t int) bool {
	for i := range d.level {
		d.level[i] = -1
	}
	queue := []int{s}
	d.level[s] = 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, e := range d.adj[v] {
			if e.cap > 0 && d.level[e.to] < 0 {
				d.level[e.to] = d.level[v] + 1
				queue = append(queue, e.to)
			}
		}
	}
	return d.level[t] >= 0
}

func (d *dinic) dfs(v, t int, f int64) int64 {
	if v == t {
		return f
	}
	for ; d.iter[v] < len(d.adj[v]); d.iter[v]++ {
		e := &d.adj[v][d.iter[v]]
		if e.cap > 0 && d.level[v] < d.level[e.to] {
			got := d.dfs(e.to, t, min(f, e.cap))
			if got > 0 {
				e.cap -= got
				d.adj[e.to][e.rev].cap += got
				return got
			}
		}
	}
	return 0
}

func (d *dinic) maxflow(s, t int) int64 {
	var flow int64
	for d.bfs(s, t) {
		for i := range d.iter {
			d.iter[i] = 0
		}
		for {
			f := d.dfs(s, t, 1<<62)
			if f == 0 {
				break
			}
			flow += f
		}
	}
	return flow
}

// ----------------------------------------------------------------- MCMF --

type mcmfEdge struct {
	to, rev int
	cap     int64
	cost    float64
}

type mcmf struct {
	adj [][]mcmfEdge
}

func newMCMF(n int) *mcmf { return &mcmf{adj: make([][]mcmfEdge, n)} }

func (m *mcmf) addEdge(from, to int, cap int64, cost float64) {
	m.adj[from] = append(m.adj[from], mcmfEdge{to: to, rev: len(m.adj[to]), cap: cap, cost: cost})
	m.adj[to] = append(m.adj[to], mcmfEdge{to: from, rev: len(m.adj[from]) - 1, cap: 0, cost: -cost})
}

// maxProfitFlow augments unit flow along the cheapest (most profitable)
// residual path while that path has negative cost, using SPFA to tolerate
// the negative arc costs. It returns the total cost (negative of total
// profit).
func (m *mcmf) maxProfitFlow(s, t int) float64 {
	n := len(m.adj)
	var total float64
	for {
		dist := make([]float64, n)
		inq := make([]bool, n)
		prevV := make([]int, n)
		prevE := make([]int, n)
		const inf = 1e18
		for i := range dist {
			dist[i] = inf
			prevV[i] = -1
		}
		dist[s] = 0
		queue := []int{s}
		inq[s] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			inq[v] = false
			for ei := range m.adj[v] {
				e := m.adj[v][ei]
				if e.cap > 0 && dist[v]+e.cost < dist[e.to]-1e-12 {
					dist[e.to] = dist[v] + e.cost
					prevV[e.to] = v
					prevE[e.to] = ei
					if !inq[e.to] {
						inq[e.to] = true
						queue = append(queue, e.to)
					}
				}
			}
		}
		if prevV[t] == -1 || dist[t] >= -1e-12 {
			break // no profitable augmentation remains
		}
		// Augment one unit (all relevant capacities are integral).
		for v := t; v != s; v = prevV[v] {
			e := &m.adj[prevV[v]][prevE[v]]
			e.cap--
			m.adj[v][e.rev].cap++
		}
		total += dist[t]
	}
	return total
}
