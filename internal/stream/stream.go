// Package stream implements the semi-streaming versions of the paper's
// algorithms (Section 4.6 and the streaming claims of Theorems 4.1/5.1):
//
//   - a one-pass greedy maximal b-matching (2-approximate), and
//   - multi-pass (1+ε) improvement for unweighted and weighted b-matchings,
//     where the random orientation and layer of every unmatched edge is
//     re-derived on each pass from a k-wise independent hash of the edge id
//     (Theorem 4.8 / ABI86), so the algorithm never stores per-edge state —
//     storing it directly would need O(m) ≫ O(Σb_v) words.
//
// All algorithms are written against the Stream interface and account every
// retained word in a Meter, so the experiment tables report measured peak
// memory against the Õ(Σb_v) bound. The Meter enforces the same invariant
// as mpc.Machine: releasing more than is retained (or charging a negative
// amount) panics instead of clamping, so peak-memory tables cannot be
// built on under-reported balances.
package stream

import (
	"fmt"

	"repro/internal/graph"
)

// Stream is a read-only, resettable sequence of edges with stable ids.
type Stream interface {
	// Reset rewinds to the first edge (a new pass).
	Reset()
	// Next returns the next edge and its id, or ok=false at end of pass.
	Next() (id int32, e graph.Edge, ok bool)
	// Len returns the total number of edges (known a priori in our
	// experiments; not used by the algorithms themselves).
	Len() int
}

// SliceStream streams the edges of an in-memory graph in id order.
type SliceStream struct {
	g   *graph.Graph
	pos int
}

// NewSliceStream returns a stream over g's edges.
func NewSliceStream(g *graph.Graph) *SliceStream { return &SliceStream{g: g} }

// Reset implements Stream.
func (s *SliceStream) Reset() { s.pos = 0 }

// Next implements Stream.
func (s *SliceStream) Next() (int32, graph.Edge, bool) {
	if s.pos >= len(s.g.Edges) {
		return 0, graph.Edge{}, false
	}
	id := int32(s.pos)
	e := s.g.Edges[s.pos]
	s.pos++
	return id, e, true
}

// Len implements Stream.
func (s *SliceStream) Len() int { return len(s.g.Edges) }

// Meter tracks retained words and their peak.
type Meter struct {
	cur, peak int64
}

// Charge records w retained words. Charging a negative amount panics: it is
// a disguised release that would bypass the Release invariant below.
func (m *Meter) Charge(w int64) {
	if w < 0 {
		panic(fmt.Sprintf("stream: charged negative %d words", w))
	}
	m.cur += w
	if m.cur > m.peak {
		m.peak = m.cur
	}
}

// Release records w words freed. Releasing more than is retained panics,
// the same contract as mpc.Machine.Release: a negative balance means the
// algorithm's memory accounting is wrong, and silently clamping to zero
// would let the bug under-report the streaming peak-memory tables. A
// negative w panics too — it is a disguised charge that would raise cur
// without updating the peak.
func (m *Meter) Release(w int64) {
	if w < 0 {
		panic(fmt.Sprintf("stream: released negative %d words", w))
	}
	m.cur -= w
	if m.cur < 0 {
		panic(fmt.Sprintf("stream: released %d words with only %d retained", w, m.cur+w))
	}
}

// Peak returns the high-water mark in words.
func (m *Meter) Peak() int64 { return m.peak }
