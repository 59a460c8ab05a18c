// Package weighted implements Section 5 of the paper: (1+ε)-approximate
// maximum weight b-matching via weighted graph layering, random
// H/T-bipartitioning of vertex copies, the Step (III) random orientation of
// unmatched edges, alternating-walk extraction (Algorithm 4), and the
// scalable two-level conflict resolution (Algorithms 5 and 6).
//
// Where the underlying GKMS framework enumerates threshold profiles
// (τᴬ, τᴮ) to guarantee per-walk gain, this implementation filters extracted
// walks by their measured gain directly — see DESIGN.md ("Substitutions")
// for why this preserves the invariant the profiles exist to enforce. All
// other structure follows the paper: matched edges live inside layers
// between a T-side and an H-side copy, unmatched edges connect H_i to
// T_{i+1} under a random orientation chosen once per edge, and walks are
// grown with the Compress trick (concrete copies are claimed only on
// extension, so no a-priori copy binding is ever needed).
package weighted

import (
	"repro/internal/matching"
	"repro/internal/rng"
	"repro/internal/scratch"
)

func gapKey(gap int, v int32) int64 { return int64(gap)<<40 | int64(v) }

// Instance is one random weighted layered graph over the current matching.
type Instance struct {
	m *matching.BMatching
	k int // number of matched layers

	// Step (I)'s distribution of M over Decompress(V, b) is implicit here:
	// because every matched edge is claimed at most once and every free
	// copy is a counted slot, the concrete copy assignment (available
	// explicitly via augment.AssignSlots, Lemma 4.7) never needs to be
	// materialized — the Compress trick works on counts alone.

	// Matched-edge placement: present[e] iff the two copies fell on opposite
	// sides of the bipartition; layer[e] ∈ 1..k; entry/exit vertices are the
	// T-side / H-side endpoints.
	present  []bool
	layer    []int32
	entryOf  []int32 // T-side endpoint vertex
	exitOf   []int32 // H-side endpoint vertex
	arcUsed  []bool
	arcsAt   map[int64][]int32 // (layer, entry vertex) -> matched edge ids
	edgeUsed []bool

	// Unmatched-edge placement: Step (III) fixes one random orientation per
	// edge; the edge may be traversed from its source's H-copy into its
	// target's T-copy at ANY gap. (Lemma 5.6's double-crossing argument
	// needs only the orientation to be fixed — restricting each edge to one
	// gap, as the τᴮ bands do in GKMS, is a proof convenience that would
	// multiply the practical failure probability by k per hop.)
	//
	// CSR layout: the ids with source v are
	// unmatchedEdges[unmatchedStart[v]:unmatchedStart[v+1]] (a map here
	// dominated the profile; instances are built in the driver's innermost
	// loop).
	unmatchedStart []int32
	unmatchedEdges []int32

	// Free copies by side: counts of H-side (start) and T-side (end) free
	// copies per vertex.
	freeH, freeT []int32
}

// buildInstanceScratch draws a random weighted layered instance with k ≥ 1
// matched layers, taking the instance's flat arrays from ar (nil allocates
// them normally). The instance must not outlive the borrow scope of ar;
// candidates extracted by growScratch are copied out and are always safe
// to retain. RNG consumption does not depend on ar.
func buildInstanceScratch(m *matching.BMatching, k int, r *rng.RNG, ar *scratch.Arena) *Instance {
	if k < 1 {
		k = 1
	}
	g := m.Graph()
	var in *Instance
	if ar != nil {
		in = &Instance{
			m:        m,
			k:        k,
			present:  ar.Bool(g.M()),
			layer:    ar.I32Raw(g.M()), // read only where present is set
			entryOf:  ar.I32Raw(g.M()),
			exitOf:   ar.I32Raw(g.M()),
			arcUsed:  ar.Bool(g.M()),
			arcsAt:   make(map[int64][]int32),
			edgeUsed: ar.Bool(g.M()),
			freeH:    ar.I32(g.N),
			freeT:    ar.I32(g.N),
		}
	} else {
		in = &Instance{
			m:        m,
			k:        k,
			present:  make([]bool, g.M()),
			layer:    make([]int32, g.M()),
			entryOf:  make([]int32, g.M()),
			exitOf:   make([]int32, g.M()),
			arcUsed:  make([]bool, g.M()),
			arcsAt:   make(map[int64][]int32),
			edgeUsed: make([]bool, g.M()),
			freeH:    make([]int32, g.N),
			freeT:    make([]int32, g.N),
		}
	}

	// Bipartition the copies: each matched copy and each free copy is
	// assigned to H or T independently (the paper's answer to "copies of the
	// same vertex may land in different partitions" — they may, and the
	// Compress trick absorbs it).
	for e := 0; e < g.M(); e++ {
		if !m.Contains(int32(e)) {
			continue
		}
		ed := g.Edges[e]
		uH := r.Bool()
		vH := r.Bool()
		if uH == vH {
			continue // both copies on one side: edge dropped by bipartiting
		}
		in.present[e] = true
		in.layer[e] = int32(1 + r.Intn(k))
		if uH {
			in.exitOf[e], in.entryOf[e] = ed.U, ed.V
		} else {
			in.exitOf[e], in.entryOf[e] = ed.V, ed.U
		}
		key := gapKey(int(in.layer[e]), in.entryOf[e])
		in.arcsAt[key] = append(in.arcsAt[key], int32(e))
	}
	for v := 0; v < g.N; v++ {
		for s := m.Residual(int32(v)); s > 0; s-- {
			if r.Bool() {
				in.freeH[v]++
			} else {
				in.freeT[v]++
			}
		}
	}
	// Step (III): one random orientation per unmatched edge; under it the
	// edge connects copies of src in some H_i to copies of the target in
	// T_{i+1}, never the reverse. Built as CSR by counting sort. counts
	// becomes unmatchedStart, so it shares the instance's allocator.
	var srcOf, counts []int32
	if ar != nil {
		srcOf = ar.I32Raw(g.M())
		counts = ar.I32(g.N + 1)
	} else {
		srcOf = make([]int32, g.M())
		counts = make([]int32, g.N+1)
	}
	for e := 0; e < g.M(); e++ {
		if m.Contains(int32(e)) {
			srcOf[e] = -1
			continue
		}
		ed := g.Edges[e]
		src := ed.U
		if r.Bool() {
			src = ed.V
		}
		srcOf[e] = src
		counts[src+1]++
	}
	for v := 0; v < g.N; v++ {
		counts[v+1] += counts[v]
	}
	in.unmatchedStart = counts
	var fill []int32
	if ar != nil {
		in.unmatchedEdges = ar.I32Raw(int(counts[g.N]))
		fill = ar.I32(g.N)
	} else {
		in.unmatchedEdges = make([]int32, counts[g.N])
		fill = make([]int32, g.N)
	}
	for e := 0; e < g.M(); e++ {
		if srcOf[e] < 0 {
			continue
		}
		v := srcOf[e]
		in.unmatchedEdges[in.unmatchedStart[v]+fill[v]] = int32(e)
		fill[v]++
	}
	return in
}

// Candidate is an alternating walk extracted from the instance together
// with its gain and the free-copy slots it consumes at its endpoints.
type Candidate struct {
	Walk matching.Walk
	Gain float64
	// StartsFree / EndsFree report whether the walk consumes a free copy at
	// its first / last vertex (otherwise that end terminates in a matched
	// edge, which the application removes).
	StartsFree, EndsFree bool
}

// pathState is a partial walk during growth.
type pathState struct {
	edges      []int32
	start      int32
	end        int32
	startsFree bool
	// bestLen/bestGain track the best valid prefix seen so far: prefixes
	// ending in a matched edge are always applicable; the full walk is
	// applicable when it ends at a free copy.
	bestLen      int
	bestGain     float64
	bestEndsFree bool
	gain         float64 // running gain of the full prefix
}

// growScratch runs the layer-by-layer alternating search (the MPC content of
// Alg-Alternating, Lemma 5.5: each step extends all paths in parallel by
// one unmatched and one matched edge) and returns gain-positive candidates.
// All returned candidates are mutually edge- and copy-disjoint. The
// free-slot counters are borrowed from ar (nil allocates); returned
// candidates hold freshly copied walks and are always safe to retain past
// the borrow scope.
func (in *Instance) growScratch(r *rng.RNG, ar *scratch.Arena) []Candidate {
	g := in.m.Graph()

	var active []*pathState
	// Starts: heads of layer-1 arcs (walks that begin with a matched edge,
	// the paper's "special vertices in H_1")...
	for e := 0; e < g.M(); e++ {
		if in.present[e] && in.layer[e] == 1 {
			in.arcUsed[e] = true
			p := &pathState{
				edges: []int32{int32(e)},
				start: in.entryOf[e],
				end:   in.exitOf[e],
				gain:  -g.Edges[e].W,
			}
			p.bestLen, p.bestGain, p.bestEndsFree = 1, p.gain, false
			active = append(active, p)
		}
	}
	// ...plus free H-side copies (walks that begin with an unmatched edge).
	for v := 0; v < g.N; v++ {
		for s := int32(0); s < in.freeH[v]; s++ {
			active = append(active, &pathState{
				start:      int32(v),
				end:        int32(v),
				startsFree: true,
				bestLen:    0,
			})
		}
	}
	var freeTLeft []int32
	if ar != nil {
		freeTLeft = ar.I32Raw(g.N)
	} else {
		freeTLeft = make([]int32, g.N)
	}
	copy(freeTLeft, in.freeT)

	var finished []*pathState
	for gap := 1; gap <= in.k && len(active) > 0; gap++ {
		r.Shuffle(len(active), func(a, b int) { active[a], active[b] = active[b], active[a] })
		var next []*pathState
		for _, p := range active {
			extended := false
			for _, e := range in.unmatchedEdges[in.unmatchedStart[p.end]:in.unmatchedStart[p.end+1]] {
				if in.edgeUsed[e] {
					continue
				}
				y := g.Edges[e].Other(p.end)
				// Prefer closing at a free T-copy: a completed augmentation.
				if freeTLeft[y] > 0 {
					freeTLeft[y]--
					in.edgeUsed[e] = true
					p.edges = append(p.edges, e)
					p.end = y
					p.gain += g.Edges[e].W
					if p.gain > p.bestGain || p.bestLen == 0 {
						p.bestLen, p.bestGain, p.bestEndsFree = len(p.edges), p.gain, true
					}
					finished = append(finished, p)
					extended = true
					break
				}
				// Otherwise continue through a matched arc of layer gap+1.
				if gap == in.k {
					continue
				}
				var got int32 = -1
				for _, a := range in.arcsAt[gapKey(gap+1, y)] {
					if !in.arcUsed[a] {
						got = a
						break
					}
				}
				if got < 0 {
					continue
				}
				in.edgeUsed[e] = true
				in.arcUsed[got] = true
				p.edges = append(p.edges, e, got)
				p.gain += g.Edges[e].W - g.Edges[got].W
				p.end = in.exitOf[got]
				if p.gain > p.bestGain || p.bestLen == 0 {
					p.bestLen, p.bestGain, p.bestEndsFree = len(p.edges), p.gain, false
				}
				next = append(next, p)
				extended = true
				break
			}
			if !extended {
				finished = append(finished, p)
			}
		}
		active = next
	}
	finished = append(finished, active...)

	var out []Candidate
	for _, p := range finished {
		if p.bestLen == 0 || p.bestGain <= 0 {
			continue
		}
		// A prefix that does not end at a free copy must end in a matched
		// edge; by construction bestLen positions do (prefixes are recorded
		// only after traversing a matched arc or closing at a free copy).
		out = append(out, Candidate{
			Walk: matching.Walk{
				EdgeIDs: append([]int32(nil), p.edges[:p.bestLen]...),
				Start:   p.start,
			},
			Gain:       p.bestGain,
			StartsFree: p.startsFree,
			EndsFree:   p.bestEndsFree,
		})
	}
	return out
}
