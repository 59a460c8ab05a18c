// Package augment implements Section 4 of the paper: the (1+ε)
// approximation of unweighted b-matchings via short augmenting walks. Its
// pieces are
//
//   - the Decompress/Compress operations (Definitions 4.2/4.3, Figure 1)
//     that view a b-matching on V as a 1-matching on a copy set V',
//   - the H-construction of Section 4.2 proving short augmenting walks
//     exist, used by the structural tests,
//   - random layered graphs and the McGregor-style layer-by-layer path
//     growing with the Compress trick of Section 4.4, and
//   - the (1+ε) driver of Lemma 4.6.
package augment

import "repro/internal/graph"

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
