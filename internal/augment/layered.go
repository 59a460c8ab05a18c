// Random layered graphs and McGregor-style path growing for unweighted
// b-matchings (Sections 4.3–4.4).
//
// A layered graph has layers L_0, ..., L_{K+1}: free copies of vertices are
// assigned uniformly to L_0 or L_{K+1}; each matched edge becomes a randomly
// oriented arc in a uniform layer i ∈ {1..K}; each unmatched edge receives a
// uniform layer index i_e ∈ {0..K} and a uniform orientation (u,v) or (v,u),
// meaning it may only connect a copy of its source in H_{i_e} to a copy of
// its target in T_{i_e+1} (the Section 4.4 Step that also avoids duplicate
// edge placements).
//
// Crucially — the paper's Compress trick — the construction never fixes
// WHICH copy an unmatched edge attaches to: all copies of a vertex inside a
// layer side are contracted, and the grower claims concrete arcs/slots only
// when a path actually extends. Growing maintains vertex-copy-disjoint
// alternating paths from L_0 and extends them layer by layer with a greedy
// maximal (Θ(1)-approximate) b'-matching between consecutive layers.
package augment

import (
	"repro/internal/matching"
	"repro/internal/rng"
	"repro/internal/scratch"
)

// Layered is one random layered-graph instance for a fixed matching.
type Layered struct {
	K int // number of matched layers (augmenting walks have K matched edges)

	m *matching.BMatching

	// Matched arcs: for each matched edge, its layer and orientation.
	arcLayer []int32 // 1..K, or 0 if edge unmatched
	arcTail  []int32
	arcHead  []int32
	arcUsed  []bool

	// arcsAt[(layer,tail)] lists matched edge ids.
	arcsAt map[int64][]int32

	// Unmatched edges: unmatchedAt[(layer, source)] lists edge ids e whose
	// chosen orientation leaves source in H_layer; the target is the other
	// endpoint.
	unmatchedAt map[int64][]int32
	edgeUsed    []bool

	// Free-copy slot counts at the boundary layers.
	f0, fk1 []int32
}

func lkey(layer int, v int32) int64 { return int64(layer)<<32 | int64(v) }

// buildLayeredScratch draws a random layered graph for matching m with K
// matched layers, taking the instance's flat arrays from ar (nil allocates
// them normally). The instance — including the walks index maps, but not
// the walks returned by growScratch, which are copied out — must not
// outlive the borrow scope of ar. RNG consumption does not depend on ar.
func buildLayeredScratch(m *matching.BMatching, K int, r *rng.RNG, ar *scratch.Arena) *Layered {
	g := m.Graph()
	var L *Layered
	if ar != nil {
		L = &Layered{
			K:           K,
			m:           m,
			arcLayer:    ar.I32Raw(g.M()), // written for every matched edge before any read
			arcTail:     ar.I32Raw(g.M()),
			arcHead:     ar.I32Raw(g.M()),
			arcUsed:     ar.Bool(g.M()),
			arcsAt:      make(map[int64][]int32),
			unmatchedAt: make(map[int64][]int32),
			edgeUsed:    ar.Bool(g.M()),
			f0:          ar.I32(g.N),
			fk1:         ar.I32(g.N),
		}
	} else {
		L = &Layered{
			K:           K,
			m:           m,
			arcLayer:    make([]int32, g.M()),
			arcTail:     make([]int32, g.M()),
			arcHead:     make([]int32, g.M()),
			arcUsed:     make([]bool, g.M()),
			arcsAt:      make(map[int64][]int32),
			unmatchedAt: make(map[int64][]int32),
			edgeUsed:    make([]bool, g.M()),
			f0:          make([]int32, g.N),
			fk1:         make([]int32, g.N),
		}
	}
	// Free copies to boundary layers (each free slot independently).
	for v := 0; v < g.N; v++ {
		for s := m.Residual(int32(v)); s > 0; s-- {
			if r.Bool() {
				L.f0[v]++
			} else {
				L.fk1[v]++
			}
		}
	}
	for e := 0; e < g.M(); e++ {
		ed := g.Edges[e]
		if m.Contains(int32(e)) {
			if K < 1 {
				continue // K=0 instances look only for free-free edges
			}
			layer := 1 + r.Intn(K)
			t, h := ed.U, ed.V
			if r.Bool() {
				t, h = h, t
			}
			L.arcLayer[e] = int32(layer)
			L.arcTail[e] = t
			L.arcHead[e] = h
			k := lkey(layer, t)
			L.arcsAt[k] = append(L.arcsAt[k], int32(e))
		} else {
			layer := r.Intn(K + 1) // i_e ∈ {0..K}
			src := ed.U
			if r.Bool() {
				src = ed.V
			}
			k := lkey(layer, src)
			L.unmatchedAt[k] = append(L.unmatchedAt[k], int32(e))
		}
	}
	return L
}

// path is a partial alternating path during growing.
type path struct {
	edges []int32
	start int32
	end   int32 // current head vertex
}

// growScratch runs the layer-by-layer extension and returns the
// vertex-copy- and edge-disjoint augmenting walks found (each with exactly
// K matched edges, alternating walk length 2K+1). The returned walks can
// all be applied to the matching the instance was built from. The
// free-slot counters are borrowed from ar (nil allocates); the returned
// walks are always safe to retain: their edge lists are built by ordinary
// appends, never on the arena.
func (L *Layered) growScratch(r *rng.RNG, ar *scratch.Arena) []matching.Walk {
	g := L.m.Graph()

	// Start one path per free copy in L_0.
	var active []*path
	for v := 0; v < g.N; v++ {
		for s := int32(0); s < L.f0[v]; s++ {
			active = append(active, &path{start: int32(v), end: int32(v)})
		}
	}
	var fk1Left []int32
	if ar != nil {
		fk1Left = ar.I32Raw(g.N)
	} else {
		fk1Left = make([]int32, g.N)
	}
	copy(fk1Left, L.fk1)

	var done []*path
	for i := 0; i <= L.K && len(active) > 0; i++ {
		// Greedy maximal extension from H_i to T_{i+1} — the Θ(1)-approximate
		// b'-matching between compressed layers. Random path order keeps the
		// greedy unbiased across instances.
		r.Shuffle(len(active), func(a, b int) { active[a], active[b] = active[b], active[a] })
		var extended []*path
		for _, p := range active {
			candidates := L.unmatchedAt[lkey(i, p.end)]
			state := 0 // 0 = dropped, 1 = completed, 2 = extended
			// First preference: complete the walk now by consuming a free
			// copy of a neighbour. A completed walk is a guaranteed +1,
			// whereas an extension is speculative, so early completion only
			// helps the cardinality objective. (The paper covers shorter
			// augmentations by separate smaller-k layered graphs; early
			// completion folds those into one instance.)
			for _, e := range candidates {
				if L.edgeUsed[e] {
					continue
				}
				y := g.Edges[e].Other(p.end)
				if fk1Left[y] > 0 {
					fk1Left[y]--
					L.edgeUsed[e] = true
					p.edges = append(p.edges, e)
					p.end = y
					done = append(done, p)
					state = 1
					break
				}
			}
			if state == 0 && i < L.K {
				// Otherwise claim an unused arc of layer i+1 with tail y.
				for _, e := range candidates {
					if L.edgeUsed[e] {
						continue
					}
					y := g.Edges[e].Other(p.end)
					arcs := L.arcsAt[lkey(i+1, y)]
					var got int32 = -1
					for _, a := range arcs {
						if !L.arcUsed[a] {
							got = a
							break
						}
					}
					if got < 0 {
						continue
					}
					L.edgeUsed[e] = true
					L.arcUsed[got] = true
					p.edges = append(p.edges, e, got)
					p.end = L.arcHead[got]
					state = 2
					break
				}
			}
			if state == 2 {
				extended = append(extended, p)
			}
		}
		active = extended
	}

	walks := make([]matching.Walk, 0, len(done))
	for _, p := range done {
		walks = append(walks, matching.Walk{EdgeIDs: p.edges, Start: p.start})
	}
	return walks
}
