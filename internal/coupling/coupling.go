// Package coupling instruments the central technical device of Section 3.6:
// the coupled execution of the idealized process (Algorithm 1) and the
// partition-estimate process (Algorithm 2's local simulation), sharing the
// same random thresholds and the same initialization.
//
// The paper's induction (Theorem 3.26) tracks three per-round quantities
// for every vertex alive in both processes —
//
//	|y_{v,t} − ỹ_{v,t}|,   Σ_{e∈E(v)} |x_{e,t} − x̃_{e,t}|,
//	Σ_{e∈E_local(v)} |x_{e,t} − x̃_{e,t}|
//
// — and Theorem 3.27 bounds the probability that a vertex is active in one
// process but not the other. This package runs the two processes in
// lockstep and reports exactly those series, so the experiments (E12) can
// check the measured divergence against the paper's ρ_t = N^(−0.2)·100^t
// envelope and the tests can verify the qualitative claims (divergence
// grows with t; random thresholds beat fixed ones; the clamp in the
// initialization matters).
package coupling

import (
	"math"

	"repro/internal/frac"
	"repro/internal/rng"
)

// RoundStats reports the coupled processes' divergence after round t.
type RoundStats struct {
	T int
	// MaxYDiv and MeanYDiv are max/mean over vertices active in BOTH
	// processes of |y_{v,t} − ỹ_{v,t}|/b_v, where ỹ is the partition
	// ESTIMATE N·Σ_{e∈E_local(v)} x̃_e — condition 1 of Theorem 3.26.
	MaxYDiv, MeanYDiv float64
	// MaxEdgeDiv is the max over those vertices of
	// Σ_{e∈E(v)}|x_{e,t} − x̃_{e,t}|/b_v (condition 2) — the downstream
	// divergence of the value vectors themselves.
	MaxEdgeDiv float64
	// ActiveSymDiff is |V_t^active △ Ṽ_t^active| (Theorem 3.27's event).
	ActiveSymDiff int
	// BothActive counts vertices active in both processes.
	BothActive int
}

// Result is the full coupled run.
type Result struct {
	N      int // number of partitions in the approximate process
	T      int // rounds executed
	Rounds []RoundStats
}

// Rho returns the paper's divergence envelope ρ_t = N^(−0.2)·100^t
// (Theorem 3.26). The proofs guarantee divergences stay below ρ_t with high
// probability in the m ≥ n·log¹⁰n regime; at laptop scale the envelope is
// loose, which E12 makes visible.
func (r *Result) Rho(t int) float64 {
	return math.Pow(float64(r.N), -0.2) * math.Pow(100, float64(t))
}

// Run executes T coupled rounds on problem p with N partitions, sharing
// thresholds th (drawn fresh when nil). A partition assignment is drawn
// from rnd; both processes start from Algorithm 1's initialization.
func Run(p *frac.Problem, N, T int, th frac.ThresholdFn, rnd *rng.RNG) *Result {
	g := p.G
	if th == nil {
		th = frac.NewThresholds(p, T, rnd.Split())
	}
	// Random vertex partition; E_local(v) = incident edges whose both
	// endpoints share v's partition.
	part := make([]int32, g.N)
	for v := range part {
		part[v] = int32(rnd.Intn(N))
	}
	local := make([]bool, g.M())
	for e := 0; e < g.M(); e++ {
		ed := g.Edges[e]
		local[e] = part[ed.U] == part[ed.V]
	}

	// Idealized values x and approximate values xt.
	x := frac.NewView[float64](p).InitialValues(make([]float64, g.M()), make([]float64, g.N), g.AvgDeg(), 1)
	xt := append([]float64(nil), x...)
	act := make([]bool, g.N)  // V_t^active
	actT := make([]bool, g.N) // Ṽ_t^active
	for v := range act {
		act[v] = true
		actT[v] = true
	}

	res := &Result{N: N, T: T}
	y := make([]float64, g.N)
	yt := make([]float64, g.N)
	for t := 1; t <= T; t++ {
		// Exact sums and partition estimates.
		for v := range y {
			y[v] = 0
			yt[v] = 0
		}
		for e := 0; e < g.M(); e++ {
			ed := g.Edges[e]
			y[ed.U] += x[e]
			y[ed.V] += x[e]
			if local[e] {
				yt[ed.U] += xt[e]
				yt[ed.V] += xt[e]
			}
		}
		for v := range yt {
			yt[v] *= float64(N)
		}
		// Activity decisions on the SHARED thresholds (the coupling).
		for v := int32(0); int(v) < g.N; v++ {
			tv := th(v, t)
			if act[v] && y[v] > tv {
				act[v] = false
			}
			if actT[v] && yt[v] > tv {
				actT[v] = false
			}
		}
		// Doubling in both processes.
		for e := 0; e < g.M(); e++ {
			ed := g.Edges[e]
			if act[ed.U] && act[ed.V] && x[e] <= p.R[e]/2 {
				x[e] *= 2
			}
			if actT[ed.U] && actT[ed.V] && xt[e] <= p.R[e]/2 {
				xt[e] *= 2
			}
		}
		res.Rounds = append(res.Rounds, measure(p, x, xt, act, actT, local, N, t))
	}
	return res
}

func measure(p *frac.Problem, x, xt []float64, act, actT []bool, local []bool, N, t int) RoundStats {
	g := p.G
	st := RoundStats{T: t}
	y := frac.NewView[float64](p).VertexSums(make([]float64, g.N), x, 0)
	// The partition estimate of the approximate process's sums.
	yt := make([]float64, g.N)
	for e := 0; e < g.M(); e++ {
		if !local[e] {
			continue
		}
		ed := g.Edges[e]
		yt[ed.U] += xt[e]
		yt[ed.V] += xt[e]
	}
	for v := range yt {
		yt[v] *= float64(N)
	}
	edgeDiv := make([]float64, g.N)
	for e := 0; e < g.M(); e++ {
		d := math.Abs(x[e] - xt[e])
		ed := g.Edges[e]
		edgeDiv[ed.U] += d
		edgeDiv[ed.V] += d
	}
	var sum float64
	for v := 0; v < g.N; v++ {
		if act[v] != actT[v] {
			st.ActiveSymDiff++
		}
		if !(act[v] && actT[v]) || p.B[v] <= 0 {
			continue
		}
		st.BothActive++
		div := math.Abs(y[v]-yt[v]) / p.B[v]
		sum += div
		if div > st.MaxYDiv {
			st.MaxYDiv = div
		}
		if ed := edgeDiv[v] / p.B[v]; ed > st.MaxEdgeDiv {
			st.MaxEdgeDiv = ed
		}
	}
	if st.BothActive > 0 {
		st.MeanYDiv = sum / float64(st.BothActive)
	}
	return st
}
