// Blocked, pass-fused CSR kernels. Every kernel here is bit-identical to
// the serial multi-pass loop it replaced, for every worker count and every
// block partition, because of two structural facts:
//
//   - Per-vertex float64 accumulation happens by walking the vertex's CSR
//     incidence list, whose order (ascending edge id) is exactly the order
//     in which the old serial edge sweep added into that vertex's slot. A
//     vertex's sum is one fixed left-fold either way.
//   - Block boundaries are derived from the graph and a grain only — never
//     from the worker count (par.ParallelForBlocks contract) — and blocks
//     write disjoint index ranges, so there is no cross-block reduction of
//     floats at all; int counts combine in ascending block order.
//
// Vertex blocks are degree-balanced (cut every ~vertexWorkGrain incident
// edges, not every k vertices), so a skewed-degree graph spreads its work
// instead of serializing behind its heaviest vertices' home block.
package frac

import (
	"math"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/scratch"
)

// Kernel grains: indices (edges) per block for elementwise edge sweeps,
// and incident-edge work per degree-balanced vertex block. Variables so
// the fusion determinism harness can shrink them to force many blocks on
// small test graphs; production code treats them as constants.
var (
	edgeGrain       = 1 << 14
	vertexWorkGrain = 1 << 14
)

// vertexBlockCap bounds the boundary count vertexBlocksScratch can emit:
// every interior cut consumes ≥ grain of the 2m total incident-edge work.
func vertexBlockCap(g *graph.Graph, grain int) int {
	c := 2*g.M()/grain + 3
	if c > g.N+2 {
		c = g.N + 2
	}
	return c
}

// vertexBlocksScratch cuts the vertex range [0, n) into contiguous blocks
// of roughly grain incident edges each and returns the boundary list
// (boundaries[b] .. boundaries[b+1] is block b; first entry 0, last n).
// Boundaries depend only on the graph and grain.
func vertexBlocksScratch(g *graph.Graph, grain int, ar *scratch.Arena) []int32 {
	buf := ar.I32Raw(vertexBlockCap(g, grain))
	return vertexBlocksInto(g, grain, buf[:0])
}

// vertexBlocksInto is vertexBlocksScratch appending into dst (the caller
// guarantees capacity ≥ vertexBlockCap when dst must not grow).
func vertexBlocksInto(g *graph.Graph, grain int, dst []int32) []int32 {
	return g.DegreeBlocks(grain, dst)
}

// vertexSumsGather writes dst[v] = Σ_{e∈E(v)} x[e] for every vertex, one
// degree-balanced block per scheduling claim. vb is a boundary list from
// vertexBlocksScratch. Accumulation is float64 regardless of V — the sums
// feed threshold and capacity comparisons — and for V = float64 the per-add
// conversion is the identity, so the fold is the pre-generic one verbatim.
func (w View[V]) vertexSumsGather(dst []float64, x []V, workers int, vb []int32) {
	g := w.p.G
	//lint:parallel blocks write disjoint dst[v] ranges; each vertex sum is its own CSR-order left-fold, independent of the partition
	par.ParallelForBlocks(workers, len(vb)-1, 1, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			for v := vb[b]; v < vb[b+1]; v++ {
				var s float64
				for _, e := range g.Incident(v) {
					s += float64(x[e])
				}
				dst[v] = s
			}
		}
	})
}

// vLooseGather fuses the vertex-sum gather with the looseness indicator:
// y[v] = Σ_{e∈E(v)} x[e] and dst[v] = (y[v] < alpha·b_v) in one CSR walk.
// The indicator compares the full-precision float64 sum; only the stored
// y[v] is rounded to V.
func (w View[V]) vLooseGather(dst []bool, y, x []V, alpha float64, workers int, vb []int32) {
	g, b := w.p.G, w.p.B
	//lint:parallel blocks write disjoint dst/y ranges; per-vertex sum and compare don't depend on the partition
	par.ParallelForBlocks(workers, len(vb)-1, 1, func(lo, hi int) {
		for bl := lo; bl < hi; bl++ {
			for v := vb[bl]; v < vb[bl+1]; v++ {
				var s float64
				for _, e := range g.Incident(v) {
					s += float64(x[e])
				}
				y[v] = V(s)
				dst[v] = s < alpha*b[v]
			}
		}
	})
}

// InitialValues writes x_{e,0} = min(r_e, q_v, q_u) with
// q_v = 0.8·b_v / max(|E(v)|, d̄) — the initialization of Algorithm 1 that
// both balances validity and keeps per-edge influence small (Section 1.4) —
// into dst (len m) and returns it. avgDeg is d̄ of the graph the process
// runs on, and q (len n) is per-vertex scratch. The q pass is elementwise
// over vertices, the x pass elementwise over edges, so both partition
// trivially over a pool of workers goroutines (0 = GOMAXPROCS). The min
// runs in float64; the store rounds to V, which cannot exceed the
// V-precision capacity mirror (rounding to nearest never crosses the
// representable w.r[e]).
func (w View[V]) InitialValues(dst []V, q []float64, avgDeg float64, workers int) []V {
	g := w.p.G
	//lint:parallel elementwise over vertices: q[v] depends only on v
	par.ParallelForBlocks(workers, g.N, edgeGrain, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			den := math.Max(float64(g.Deg(int32(v))), avgDeg)
			if den <= 0 {
				q[v] = 0
				continue
			}
			q[v] = 0.8 * w.p.B[v] / den
		}
	})
	if dst32, ok := any(dst).([]float32); ok {
		initialValuesEdges32(g, dst32, any(w.r).([]float32), q, workers)
		return dst
	}
	//lint:parallel elementwise over edges: dst[e] depends only on e
	par.ParallelForBlocks(workers, g.M(), edgeGrain, func(lo, hi int) {
		for e := lo; e < hi; e++ {
			ed := g.Edges[e]
			dst[e] = V(math.Min(float64(w.r[e]), math.Min(q[ed.U], q[ed.V])))
		}
	})
	return dst
}

// initialValuesEdges32 is the float32 edge pass of InitialValues.
// Converting per element back and forth to float64 costs more than the
// halved traffic saves, so this path mirrors q into a float32 table once
// (n-sized, cache-resident at the scales that matter) and runs the min
// chain natively in float32: measured ~2x over the float64 pass at 10^7
// edges. Everything stays ≤ r32 because r32 joins the min, and all values
// are non-negative finite, so branch-min agrees with math.Min.
func initialValuesEdges32(g *graph.Graph, dst, r32 []float32, q []float64, workers int) {
	ar, done := scratch.Borrow(nil)
	defer done()
	q32 := ar.F32Raw(g.N)
	//lint:parallel elementwise over vertices: q32[v] depends only on v
	par.ParallelForBlocks(workers, g.N, edgeGrain, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			q32[v] = float32(q[v])
		}
	})
	//lint:parallel elementwise over edges: dst[e] depends only on e
	par.ParallelForBlocks(workers, g.M(), edgeGrain, func(lo, hi int) {
		for e := lo; e < hi; e++ {
			ed := g.Edges[e]
			v := q32[ed.U]
			if qv := q32[ed.V]; qv < v {
				v = qv
			}
			if r := r32[e]; r < v {
				v = r
			}
			dst[e] = v
		}
	})
}

// ELoose returns the edge ids in E_loose(x, α): edges with x_e < α·r_e
// whose both endpoints are in V_loose(x, α) (Definition 3.2). The fused
// vertex pass computes the V_loose indicator, then two elementwise edge
// passes (count, fill) emit the loose edge ids in ascending order —
// per-block counts combine in ascending block order, so the output is the
// serial append order exactly, for every value type and worker count
// (0 = GOMAXPROCS).
func (w View[V]) ELoose(x []V, alpha float64, workers int) []int32 {
	g := w.p.G
	ar, done := scratch.Borrow(nil)
	defer done()
	vb := vertexBlocksScratch(g, vertexWorkGrain, ar)
	vl := ar.BoolRaw(g.N)
	w.vLooseGather(vl, grabV[V](ar, g.N), x, alpha, workers, vb)

	m := g.M()
	blocks := (m + edgeGrain - 1) / edgeGrain
	if blocks == 0 {
		return nil
	}
	counts := ar.I32(blocks)
	loose := func(e int) bool {
		ed := g.Edges[e]
		return float64(x[e]) < alpha*float64(w.r[e]) && vl[ed.U] && vl[ed.V]
	}
	// Native float32 compare for the f32 slab: the per-element conversions
	// to float64 cost more than they buy on this traffic-bound pass. The
	// threshold α·r rounds once to float32, which can only reclassify edges
	// within one ulp of the cutoff — α is a coarse activity heuristic, and
	// the choice is identical across workers and transports either way.
	if x32, ok := any(x).([]float32); ok {
		r32, a32 := any(w.r).([]float32), float32(alpha)
		loose = func(e int) bool {
			ed := g.Edges[e]
			return x32[e] < a32*r32[e] && vl[ed.U] && vl[ed.V]
		}
	}
	//lint:parallel blocks write disjoint counts slots; the per-edge predicate is pure
	par.ParallelForBlocks(workers, m, edgeGrain, func(lo, hi int) {
		var c int32
		for e := lo; e < hi; e++ {
			if loose(e) {
				c++
			}
		}
		counts[lo/edgeGrain] = c
	})
	total := int32(0)
	for b := 0; b < blocks; b++ {
		c := counts[b]
		counts[b] = total
		total += c
	}
	if total == 0 {
		return nil
	}
	out := make([]int32, total)
	//lint:parallel blocks fill disjoint out regions at their ascending-order offsets
	par.ParallelForBlocks(workers, m, edgeGrain, func(lo, hi int) {
		idx := counts[lo/edgeGrain]
		for e := lo; e < hi; e++ {
			if loose(e) {
				out[idx] = int32(e)
				idx++
			}
		}
	})
	return out
}
