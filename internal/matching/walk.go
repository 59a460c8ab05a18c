// Alternating walks (Definitions 2.2/2.3), walk application (Definition
// 5.2), and gain (Definition 5.3).
package matching

import (
	"fmt"
	"slices"
)

// Walk is an alternating walk given as a sequence of edge ids. Consecutive
// edges must share an endpoint, and membership in M must strictly alternate.
// For an augmenting walk the first and last edges are unmatched.
type Walk struct {
	EdgeIDs []int32
	// Start is the first vertex of the walk (needed to orient the first
	// edge; the rest of the vertex sequence is implied).
	Start int32
}

// Vertices returns the full vertex sequence v0, v1, ..., v_len of the walk,
// or an error if consecutive edges do not share endpoints.
func (w Walk) Vertices(m *BMatching) ([]int32, error) {
	g := m.Graph()
	out := make([]int32, 0, len(w.EdgeIDs)+1)
	cur := w.Start
	out = append(out, cur)
	for i, e := range w.EdgeIDs {
		ed := g.Edges[e]
		if !ed.Has(cur) {
			return nil, fmt.Errorf("matching: walk edge %d (id %d) not incident to vertex %d", i, e, cur)
		}
		cur = ed.Other(cur)
		out = append(out, cur)
	}
	return out, nil
}

// Gain returns w(P△M) − w(P∩M): the weight increase if the walk were
// applied (Definition 5.3).
func (w Walk) Gain(m *BMatching) float64 {
	var g float64
	for _, e := range w.EdgeIDs {
		if m.Contains(e) {
			g -= m.Graph().Edges[e].W
		} else {
			g += m.Graph().Edges[e].W
		}
	}
	return g
}

// CheckAlternating verifies that the walk's edges strictly alternate between
// E\M and M, that consecutive edges are adjacent, and that no edge repeats
// (the paper's Section 5.3 Step (III) exists precisely to rule out repeated
// edges; Apply relies on it).
func (w Walk) CheckAlternating(m *BMatching) error {
	if len(w.EdgeIDs) == 0 {
		return fmt.Errorf("matching: empty walk")
	}
	if _, err := w.Vertices(m); err != nil {
		return err
	}
	seen := make(map[int32]bool, len(w.EdgeIDs))
	for i, e := range w.EdgeIDs {
		if seen[e] {
			return fmt.Errorf("matching: walk repeats edge %d", e)
		}
		seen[e] = true
		if i > 0 && m.Contains(e) == m.Contains(w.EdgeIDs[i-1]) {
			return fmt.Errorf("matching: walk does not alternate at position %d", i)
		}
	}
	return nil
}

// Apply replaces M by (M \ (M∩P)) ∪ (P△M): matched edges of the walk leave
// the matching and unmatched ones enter (Definition 5.2). It first verifies
// the walk alternates and that the result satisfies all budgets; on any
// error M is left unchanged.
func (w Walk) Apply(m *BMatching) error {
	if err := w.CheckAlternating(m); err != nil {
		return err
	}
	// Feasibility: net degree change at v is (#unmatched walk edges at v) −
	// (#matched walk edges at v); check budget after the change.
	delta := make(map[int32]int)
	g := m.Graph()
	for _, e := range w.EdgeIDs {
		d := 1
		if m.Contains(e) {
			d = -1
		}
		delta[g.Edges[e].U] += d
		delta[g.Edges[e].V] += d
	}
	// Check vertices in sorted order: ranging the map directly would
	// report whichever violating vertex Go's randomized iteration met
	// first, making the error text differ run to run.
	verts := make([]int32, 0, len(delta))
	//lint:sorted keys are collected here and sorted before any use below
	for v := range delta {
		verts = append(verts, v)
	}
	slices.Sort(verts)
	for _, v := range verts {
		d := delta[v]
		if m.MatchedDeg(v)+d > m.b[v] {
			return fmt.Errorf("matching: applying walk would put vertex %d at degree %d > budget %d",
				v, m.MatchedDeg(v)+d, m.b[v])
		}
		if m.MatchedDeg(v)+d < 0 {
			return fmt.Errorf("matching: applying walk would give vertex %d negative degree", v)
		}
	}
	// Commit. Membership is snapshotted first: removals run before
	// additions so budgets are never transiently exceeded, and previously
	// matched edges must not be re-added after their removal. The checks
	// above leave Remove and Add nothing to reject.
	wasMatched := make([]bool, len(w.EdgeIDs))
	for i, e := range w.EdgeIDs {
		wasMatched[i] = m.Contains(e)
	}
	for i, e := range w.EdgeIDs {
		if wasMatched[i] {
			if err := m.Remove(e); err != nil {
				panic(err)
			}
		}
	}
	for i, e := range w.EdgeIDs {
		if !wasMatched[i] {
			if err := m.Add(e); err != nil {
				panic(err)
			}
		}
	}
	return nil
}
