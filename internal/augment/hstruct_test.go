// Test oracles for Section 4.2. The copy sets of Definitions 4.2/4.3 and
// the H-construction prove that a non-maximum b-matching always admits a
// collection of independently applicable augmenting walks: viewing M △ M*
// as a union of two 1-matchings on a decompressed copy set. No driver
// builds H; the structural tests use it to augment a greedy matching all
// the way to a brute-force optimum, and the driver tests use it as an
// oracle for "how much improvement is left".
package augment

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/scratch"
)

// Copy identifies the Idx-th copy of vertex V in Decompress(V, b);
// 0 ≤ Idx < b_V.
type Copy struct {
	V   int32
	Idx int32
}

// Decompress returns the copy set of Definition 4.2: b_v copies of each
// vertex v, in vertex order.
func Decompress(b graph.Budgets) []Copy {
	out := make([]Copy, 0, b.Sum())
	for v, bv := range b {
		for i := 0; i < bv; i++ {
			out = append(out, Copy{V: int32(v), Idx: int32(i)})
		}
	}
	return out
}

// Compress returns the distinct vertices underlying a copy set
// (Definition 4.3), in first-appearance order.
func Compress(copies []Copy) []int32 {
	seen := make(map[int32]bool, len(copies))
	var out []int32
	for _, c := range copies {
		if !seen[c.V] {
			seen[c.V] = true
			out = append(out, c.V)
		}
	}
	return out
}

// HEdge is an edge of H between two copies; FromM says whether it came from
// M (versus M*).
type HEdge struct {
	CU, CV Copy
	E      int32 // original edge id
	FromM  bool
}

// HGraph is the graph H of Section 4.2 built from M △ M*.
type HGraph struct {
	BPrime []int32 // b'_v = max(deg_v(M∩Mdiff), deg_v(M*∩Mdiff))
	Edges  []HEdge
}

// BuildH constructs H for the current matching m and a target matching
// mstar over the same graph and budgets. M-edges and M*-edges of M △ M* are
// placed between copies so that each copy carries at most one M-edge and at
// most one M*-edge (Steps (A)–(C)).
func BuildH(m, mstar *matching.BMatching) (*HGraph, error) {
	if m.Graph() != mstar.Graph() {
		return nil, fmt.Errorf("augment: BuildH needs matchings over the same graph")
	}
	g := m.Graph()
	n := g.N

	inDiff := func(e int32) bool { return m.Contains(e) != mstar.Contains(e) }

	// Copy-slot cursors below are pure scratch; only BPrime and the edge
	// list escape in the result.
	ar, done := scratch.Borrow(nil)
	defer done()

	// Step (B)/(C): number each side's edges per vertex; the i-th M-edge of
	// v goes to copy i, and independently the i-th M*-edge goes to copy i.
	// Both numberings fit inside b'_v, and no copy sees two edges from the
	// same side.
	h := &HGraph{BPrime: make([]int32, n)}
	nextM := ar.I32(n)
	nextStar := ar.I32(n)
	for e := 0; e < g.M(); e++ {
		if !inDiff(int32(e)) {
			continue
		}
		ed := g.Edges[e]
		fromM := m.Contains(int32(e))
		var cu, cv Copy
		if fromM {
			cu = Copy{V: ed.U, Idx: nextM[ed.U]}
			cv = Copy{V: ed.V, Idx: nextM[ed.V]}
			nextM[ed.U]++
			nextM[ed.V]++
		} else {
			cu = Copy{V: ed.U, Idx: nextStar[ed.U]}
			cv = Copy{V: ed.V, Idx: nextStar[ed.V]}
			nextStar[ed.U]++
			nextStar[ed.V]++
		}
		h.Edges = append(h.Edges, HEdge{CU: cu, CV: cv, E: int32(e), FromM: fromM})
	}
	// The cursors end at each side's degree in M △ M*.
	for v := range h.BPrime {
		h.BPrime[v] = max(nextM[v], nextStar[v])
	}
	return h, nil
}

// AugmentingWalks decomposes H into alternating components and returns, as
// walks in G, the components that are M-augmenting paths (one more M*-edge
// than M-edges). Applying all returned walks transforms M into a b-matching
// of size |M*| (the Section 4.2 structural theorem); each walk is also
// independently applicable.
func (h *HGraph) AugmentingWalks(m *matching.BMatching) []matching.Walk {
	type key struct {
		V, I int32
	}
	adj := make(map[key][]int32) // copy -> incident H-edge indices (≤ 2)
	for i, he := range h.Edges {
		adj[key{he.CU.V, he.CU.Idx}] = append(adj[key{he.CU.V, he.CU.Idx}], int32(i))
		adj[key{he.CV.V, he.CV.Idx}] = append(adj[key{he.CV.V, he.CV.Idx}], int32(i))
	}
	used := make([]bool, len(h.Edges))
	var walks []matching.Walk

	// Trace the component starting at a degree-1 copy; H components are
	// paths and cycles since each copy has ≤ 1 M-edge and ≤ 1 M*-edge.
	trace := func(start key) ([]int32, key) {
		var edges []int32
		cur := start
		for {
			var next int32 = -1
			for _, ei := range adj[cur] {
				if !used[ei] {
					next = ei
					break
				}
			}
			if next == -1 {
				return edges, cur
			}
			used[next] = true
			edges = append(edges, next)
			he := h.Edges[next]
			if (key{he.CU.V, he.CU.Idx}) == cur {
				cur = key{he.CV.V, he.CV.Idx}
			} else {
				cur = key{he.CU.V, he.CU.Idx}
			}
		}
	}

	for i := range h.Edges {
		if used[i] {
			continue
		}
		he := h.Edges[i]
		// Find a path endpoint for this component by walking to one end
		// first, then tracing from there. (If it is a cycle, the trace
		// returns to its start and the component has equal counts of M and
		// M* edges — not augmenting, skipped.)
		endEdges, endpoint := trace(key{he.CU.V, he.CU.Idx})
		for _, ei := range endEdges {
			used[ei] = false // rewind the exploratory walk
		}
		edges, _ := trace(endpoint)

		starCnt, mCnt := 0, 0
		for _, ei := range edges {
			if h.Edges[ei].FromM {
				mCnt++
			} else {
				starCnt++
			}
		}
		if starCnt != mCnt+1 {
			continue // cycle or non-augmenting path
		}
		ids := make([]int32, len(edges))
		for j, ei := range edges {
			ids[j] = h.Edges[ei].E
		}
		walks = append(walks, matching.Walk{EdgeIDs: ids, Start: endpoint.V})
	}
	return walks
}
