// Package baseline implements the comparison algorithms the experiments
// measure the paper's algorithms against:
//
//   - Weight-sorted greedy (2-approximate for weight). The id-order greedy
//     maximal b-matching (2-approximate for cardinality) is
//     round.GreedyFill on an empty matching.
//   - An uncompressed O(log d̄)-round doubling process — the KY09-flavoured
//     baseline the introduction contrasts with: it is exactly the paper's
//     idealized process run round-by-round in MPC with one communication
//     round per doubling step, so comparing its round count against
//     FullMPC's compression steps reproduces the headline
//     O(log d̄) vs O(log log d̄) separation.
//   - A single-machine "gather" conflict-resolution baseline used by
//     experiment E9 to contrast with the paper's O(n^δ)-memory scheme.
package baseline

import (
	"context"

	"repro/internal/frac"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/rng"
)

// greedyCancelStride is how many edges GreedyWeightedCtx scans between
// cancellation checks: frequent enough that the scan phase aborts within
// milliseconds, rare enough to stay off the hot path.
const greedyCancelStride = 1 << 16

// GreedyWeightedCtx returns the b-matching built by scanning edges in
// descending weight order; a classic 2-approximation for maximum weight
// b-matching. ctx is checked before the weight sort and every
// greedyCancelStride edges of the scan (the checks never affect the
// output, only whether it is produced).
// The O(m) radix sort itself is not interruptible, so that — not one scan
// stride — bounds the worst-case abort latency. A cancelled call returns
// ctx's error with no partial matching.
func GreedyWeightedCtx(ctx context.Context, g *graph.Graph, b graph.Budgets) (*matching.BMatching, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m := matching.MustNew(g, b)
	for i, e := range graph.SortEdgesByWeightDesc(g) {
		if i%greedyCancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if m.CanAdd(e) {
			mustAdd(m, e)
		}
	}
	return m, nil
}

// UncompressedResult reports the uncompressed doubling baseline's outcome.
type UncompressedResult struct {
	X      []float64
	Rounds int // one MPC round per doubling step — Θ(log d̄) total
}

// Uncompressed runs the idealized doubling process (Algorithm 1) with one
// MPC communication round per step, i.e. without round compression, until
// the solution is 0.2-tight. Its round count is the baseline column of
// experiment E2. A cancelled ctx aborts the run with ctx's error.
func Uncompressed(ctx context.Context, p *frac.Problem, r *rng.RNG) (*UncompressedResult, error) {
	T := frac.TightRounds(p.G.M())
	x, err := frac.NewView[float64](p).Sequential(ctx, T, nil, r, nil, 0)
	if err != nil {
		return nil, err
	}
	return &UncompressedResult{X: x, Rounds: T}, nil
}

// GatherConflictResolution is the prior-work conflict-resolution baseline
// (Section 5.6): all candidate augmentations are collected on one machine,
// which greedily keeps a maximal non-intersecting subset. It returns the
// kept walks and the number of words the single machine had to hold —
// Θ(total walk length), which grows with Σb_v and is the memory bottleneck
// the paper's parallel scheme removes.
func GatherConflictResolution(walks []matching.Walk, m *matching.BMatching) (kept []matching.Walk, machineWords int64) {
	// The gathering machine stores every walk in full.
	for _, w := range walks {
		machineWords += int64(len(w.EdgeIDs)) + 1
	}
	usedEdge := make(map[int32]bool)
	usedSlot := make(map[int32]int) // vertex -> walk-endpoints consuming budget slots
	for _, w := range walks {
		ok := true
		for _, e := range w.EdgeIDs {
			if usedEdge[e] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		// Endpoint slots: each kept walk consumes one free budget slot at
		// each endpoint; respect b_v across kept walks.
		vs, err := w.Vertices(m)
		if err != nil {
			continue
		}
		first, last := vs[0], vs[len(vs)-1]
		if usedSlot[first]+m.MatchedDeg(first)+1 > m.Budgets()[first] {
			continue
		}
		if usedSlot[last]+m.MatchedDeg(last)+1 > m.Budgets()[last] {
			continue
		}
		for _, e := range w.EdgeIDs {
			usedEdge[e] = true
		}
		usedSlot[first]++
		usedSlot[last]++
		kept = append(kept, w)
	}
	return kept, machineWords
}

func mustAdd(m *matching.BMatching, e int32) {
	if err := m.Add(e); err != nil {
		panic(err)
	}
}
