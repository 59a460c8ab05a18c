// FullMPC (Algorithm 3): the complete O(log log d̄)-round driver. Each
// while-loop iteration runs one round-compression step (Algorithm 2) on the
// still-active subgraph with the remaining capacities, or — once the active
// subgraph is small — finishes with the sequential process (Algorithm 1,
// Theorem 3.6). The loop invariant (Lemma 3.15) is that the accumulated x
// stays LP-feasible, and on termination it is 0.05-tight.
package frac

import (
	"context"
	"math"

	"repro/internal/mpc"
	"repro/internal/rng"
	"repro/internal/scratch"
)

// IterStat records one while-loop iteration of FullMPC for the experiment
// series (E2 round counts, E6 degree decay).
type IterStat struct {
	ActiveEdges  int     // |E_active| at the start of the iteration
	AvgActiveDeg float64 // 2|E_active|/n
	UsedMPC      bool    // round-compression step vs sequential finish
	SimRounds    int     // MPC rounds consumed by this iteration
	T            int     // locally simulated iterations (MPC branch)
}

// FullResult is the output of FullMPC.
type FullResult struct {
	X               []float64  // feasible 0.05-tight solution
	Iterations      int        // while-loop iterations (compression steps)
	MPCSteps        int        // iterations that used OneRoundMPC
	SequentialSteps int        // iterations that used Sequential
	TotalSimRounds  int        // total MPC communication rounds
	MaxMachineEdges int        // max edges resident on one machine (Lemma 3.28)
	History         []IterStat // per-iteration series
	Converged       bool       // E_active became empty within MaxIterations
	// SimStats aggregates the simulator observables across all compression
	// steps: Rounds and TotalTraffic sum over steps, MaxRoundIO and
	// MaxMachineWords are maxima (each step runs on a fresh cluster).
	SimStats mpc.Stats
}

// FullMPCCtx runs Algorithm 3 and returns the accumulated fractional
// solution together with the round/memory measurements. On return, if
// Converged is true the solution is 0.05-tight (Lemma 3.15).
//
// ctx is checked at every while-loop iteration (and, inside each
// compression step, at every simulator superstep boundary), so a cancelled
// solve aborts within one round of work and returns ctx's error with no
// partial solution. params.Values selects the value mode the driver
// instantiates; the returned X is always float64 (an exact conversion from
// float32).
func (p *Problem) FullMPCCtx(ctx context.Context, params MPCParams, r *rng.RNG) (*FullResult, error) {
	if params.Values == ValuesF32 {
		return fullMPC[float32](ctx, p, params, r)
	}
	return fullMPC[float64](ctx, p, params, r)
}

// fullMPC is the generic Algorithm 3 driver. The accumulated solution and
// the subproblem solutions are V-typed; the remaining-capacity vectors and
// the looseness sums stay float64. For V = float64 xAcc IS the returned X
// (toF64 aliases), so the f64 path allocates and computes exactly as the
// pre-generic driver did.
func fullMPC[V Val](ctx context.Context, p *Problem, params MPCParams, r *rng.RNG) (*FullResult, error) {
	g := p.G
	n, m := g.N, g.M()
	xAcc := make([]V, m)
	res := &FullResult{}
	if m == 0 {
		res.X = toF64(xAcc)
		res.Converged = true
		return res, nil
	}
	// One arena serves the whole driver: iteration-local borrows are
	// released at each loop boundary, and nested steps (OneRoundMPC, the
	// sequential finish) borrow from the same arena via params.Scratch.
	ar, done := scratch.Borrow(params.Scratch)
	defer done()
	params.Scratch = ar
	w := viewScratch[V](p, ar)

	active := ar.I32Raw(m)
	for e := range active {
		active[e] = int32(e)
	}
	ySum := ar.F64Raw(n) // vertex-sum scratch, reused every iteration
	// Degree-balanced vertex blocks of the full graph, computed once and
	// reused by every iteration's fused vertex-sum gathers.
	vb := vertexBlocksScratch(g, vertexWorkGrain, ar)
	switchBelow := params.SwitchFactor * float64(n) * math.Log2(float64(n)+2)
	stallStreak := 0

	for iter := 0; iter < params.MaxIterations && len(active) > 0; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res.Iterations++
		stat := IterStat{
			ActiveEdges:  len(active),
			AvgActiveDeg: 2 * float64(len(active)) / float64(n),
		}
		iterMark := ar.Mark()

		// Remaining capacities w.r.t. the accumulated solution (lines 6-7).
		w.vertexSumsGather(ySum, xAcc, params.Workers, vb)
		y := ySum
		bRem := ar.F64Raw(n)
		for v := 0; v < n; v++ {
			bRem[v] = math.Max(0, p.B[v]-y[v])
		}
		sub, orig := g.Subgraph(active)
		rRem := ar.F64Raw(len(orig))
		for i, e := range orig {
			rRem[i] = math.Max(0, p.R[e]-float64(xAcc[e]))
		}
		subProb, err := NewProblem(sub, bRem, rRem)
		if err != nil {
			panic(err) // capacities are clamped non-negative; unreachable
		}
		subView := viewScratch[V](subProb, ar)

		// Branch (line 8): round compression while the active subgraph is
		// large, sequential otherwise. A stall guard forces the sequential
		// finish if the randomized step repeatedly fails to shrink E_active
		// (the paper gets the same effect from its "good iteration with
		// probability ≥ 1/2" argument).
		useMPC := float64(len(active)) >= switchBelow && stallStreak < 3
		var xPrime []V
		if useMPC {
			or, err := oneRoundMPC(ctx, subView, params, nil, r.Split())
			if err != nil {
				return nil, err
			}
			xPrime = or.x
			stat.UsedMPC = true
			stat.SimRounds = or.stats.Rounds
			stat.T = or.t
			res.MPCSteps++
			res.TotalSimRounds += or.stats.Rounds
			if or.maxMachineEdges > res.MaxMachineEdges {
				res.MaxMachineEdges = or.maxMachineEdges
			}
			res.SimStats.Rounds += or.stats.Rounds
			res.SimStats.TotalTraffic += or.stats.TotalTraffic
			if or.stats.MaxRoundIO > res.SimStats.MaxRoundIO {
				res.SimStats.MaxRoundIO = or.stats.MaxRoundIO
			}
			if or.stats.MaxMachineWords > res.SimStats.MaxMachineWords {
				res.SimStats.MaxMachineWords = or.stats.MaxMachineWords
			}
		} else {
			xPrime = grabV[V](ar, len(orig))
			if err := sequentialInto(ctx, subView, xPrime, TightRounds(len(active)), nil, r.Split(), ar, params.Workers); err != nil {
				return nil, err
			}
			res.SequentialSteps++
			res.TotalSimRounds++ // one simulated machine-local round
		}

		// Accumulate (line 13); the f32 path clamps each rounded store to
		// the V-precision edge capacity (see value.go).
		accumulate(xAcc, w.r, xPrime, orig)

		// E_active ← E_active ∩ E_loose(x, 0.05) (line 14), with looseness
		// measured against the ORIGINAL capacities.
		active = w.intersectLoose(active, xAcc, 0.05, ySum, params.Workers, vb)
		ar.Release(iterMark)
		if len(active) >= stat.ActiveEdges {
			stallStreak++
		} else {
			stallStreak = 0
		}
		res.History = append(res.History, stat)
	}
	res.Converged = len(active) == 0
	res.X = toF64(xAcc)
	return res, nil
}

// intersectLoose returns the members of active that lie in E_loose(x, α),
// using y (len n) as vertex-sum scratch and vb as the blocked gather's
// vertex-block boundaries. The in-place compaction keeps ascending order.
func (w View[V]) intersectLoose(active []int32, x []V, alpha float64, y []float64, workers int, vb []int32) []int32 {
	p := w.p
	w.vertexSumsGather(y, x, workers, vb)
	out := active[:0]
	for _, e := range active {
		ed := p.G.Edges[e]
		if float64(x[e]) < alpha*float64(w.r[e]) && y[ed.U] < alpha*p.B[ed.U] && y[ed.V] < alpha*p.B[ed.V] {
			out = append(out, e)
		}
	}
	return out
}
