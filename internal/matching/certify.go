// Optimality certificates (the k = ∞ case of Lemma 4.4, Berge's lemma for
// b-matchings, and its weighted analogue), decided on the bipartite double
// cover G₂ of the graph: each vertex v becomes v₁ and v₂ with budget b_v,
// each edge uv becomes u₁v₂ and v₁u₂, and M becomes the doubled matching
// 2M. Doubling any b-matching of G gives one of G₂, so OPT(G₂) ≥ 2·OPT(G),
// and "2M is optimal in G₂" proves M optimal in G. G₂ is bipartite, so
// optimality there is a flow condition that one linear search (size) or
// one negative-cycle search (weight) decides. The certificates are sound on
// every graph. They are complete when G is bipartite, where G₂ is two
// disjoint copies of G; an odd cycle can give G₂ an improvement that G
// lacks, and then the certificate stays silent.
package matching

import "math"

// CertifyMaxSize reports whether m is proven to be a maximum-cardinality
// b-matching: the doubled matching admits no augmenting path in G₂. It
// runs one breadth-first search over the states (v, next edge unmatched) =
// v₁ and (v, next edge matched) = v₂, started at v₁ for every deficient
// vertex v; reaching u₂ for a deficient u is an augmenting path. O(n+m).
func CertifyMaxSize(m *BMatching) bool {
	g := m.g
	seen := make([]bool, 2*g.N) // state 2v is v₁, 2v+1 is v₂
	queue := make([]int32, 0, g.N)
	for v := 0; v < g.N; v++ {
		if m.deg[v] < m.b[v] {
			seen[2*v] = true
			queue = append(queue, int32(2*v))
		}
	}
	for head := 0; head < len(queue); head++ {
		s := queue[head]
		v, matched := s>>1, s&1 == 1
		for _, e := range g.Incident(v) {
			if m.in[e] != matched {
				continue
			}
			u := g.Edges[e].Other(v)
			next := 2 * u
			if !matched {
				if m.deg[u] < m.b[u] {
					return false
				}
				next++
			}
			if !seen[next] {
				seen[next] = true
				queue = append(queue, next)
			}
		}
	}
	return true
}

// CertifyMaxWeight reports whether m is proven to be a maximum-weight
// b-matching: the residual network of 2M in G₂'s flow formulation has no
// negative cycle. That network has a hub h (the merged source and sink;
// the sink→source arc is uncapacitated) with arcs
//
//   - h→v₁ and v₂→h where v is deficient, v₁→h and h→v₂ where v is matched,
//   - v₁→u₂ of cost −w for an unmatched edge uv, and u₂→v₁ of cost +w for
//     a matched one.
//
// Every edge arc is made cheaper by a margin η = 1e-9·max w (more on huge
// graphs, so that float rounding in the distances stays below it). A
// zero-gain alternating walk or cycle is then negative and blocks the
// certificate, and so does any walk whose float gain reads positive: the
// weighted driver applies such walks, and a certificate must never stop it
// where it would still change M.
//
// The search is a queue-based Bellman–Ford from all nodes at distance 0
// that looks for a cycle in the parent pointers after every 2n+1
// relaxations; a parent cycle is a negative cycle. A failing check usually
// ends at the first such look. A succeeding one ends when no arc relaxes.
func CertifyMaxWeight(m *BMatching) bool {
	g := m.g
	n := g.N
	maxW := 0.0
	for _, ed := range g.Edges {
		maxW = math.Max(maxW, ed.W)
	}
	nodes := 2*n + 1
	if maxW*float64(2*nodes) > math.MaxFloat64/4 {
		return false // distances could overflow; stay silent
	}
	eta := maxW * math.Max(1e-9, float64(4*nodes)*0x1p-52)
	hub := int32(2 * n)

	dist := make([]float64, nodes)
	parent := make([]int32, nodes)
	queued := make([]bool, nodes)
	queue := make([]int32, nodes) // ring buffer; at most nodes entries
	for i := range parent {
		parent[i] = -1
		queued[i] = true
		queue[i] = int32(i)
	}
	head, size := 0, nodes
	relaxations := 0
	// Without a negative cycle the search settles within nodes passes over
	// the at most 2m+4n arcs; past that bound it gives up rather than spin
	// on float noise.
	limit := nodes * (2*g.M() + 4*n)
	mark := make([]int32, nodes)
	found := false
	relax := func(x, y int32, c float64) {
		if d := dist[x] + c; !found && d < dist[y] {
			dist[y], parent[y] = d, x
			if !queued[y] {
				queued[y] = true
				queue[(head+size)%nodes] = y
				size++
			}
			relaxations++
			if relaxations%nodes == 0 {
				found = parentCycle(parent, mark)
			}
		}
	}
	for size > 0 && !found {
		if relaxations > limit {
			return false
		}
		x := queue[head]
		head = (head + 1) % nodes
		size--
		queued[x] = false
		if x == hub {
			for v := int32(0); v < int32(n); v++ {
				if m.deg[v] < m.b[v] {
					relax(hub, 2*v, 0)
				}
				if m.deg[v] > 0 {
					relax(hub, 2*v+1, 0)
				}
			}
			continue
		}
		v, second := x>>1, x&1 == 1
		if second && m.deg[v] < m.b[v] || !second && m.deg[v] > 0 {
			relax(x, hub, 0)
		}
		for _, e := range g.Incident(v) {
			if m.in[e] != second {
				continue
			}
			ed := g.Edges[e]
			u := ed.Other(v)
			if second {
				relax(x, 2*u, ed.W-eta)
			} else {
				relax(x, 2*u+1, -ed.W-eta)
			}
		}
	}
	return !found
}

// parentCycle reports whether the parent pointers contain a cycle. It
// follows each unvisited node's parent chain, marking the chain with the
// id of its first node: meeting a node of the current chain closes a
// cycle, meeting one of an earlier chain does not. mark is scratch of
// len(parent).
func parentCycle(parent, mark []int32) bool {
	clear(mark)
	for start := range parent {
		if mark[start] != 0 {
			continue
		}
		id := int32(start) + 1
		x := int32(start)
		for x >= 0 && mark[x] == 0 {
			mark[x] = id
			x = parent[x]
		}
		if x >= 0 && mark[x] == id {
			return true
		}
	}
	return false
}
