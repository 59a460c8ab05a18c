// The (1+ε) weighted driver (Theorem 5.1): repeatedly draw weighted layered
// instances over the current matching, extract gain-positive alternating
// walks, resolve conflicts with Algorithms 5 and 6, and apply the
// survivors, until positive-gain augmentations dry up.
//
// Stopping. After every round that applied nothing, the driver runs
// matching.CertifyMaxWeight and stops if it proves the matching of maximum
// weight. The check is sound on every graph. On a bipartite graph it fires
// on every maximum-weight matching up to ties: an alternating walk or
// cycle of zero gain keeps it silent, because the driver would apply one
// whose float gain rounds above zero. Where it does not fire, the stall
// rule (stallRounds rounds at the full retry budget) stops the driver. The
// certificate fires only where no round could apply a walk, so it changes
// Rounds, Instances and EstMPCRounds but never M.
package weighted

import (
	"context"
	"math"

	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/scratch"
)

// Params controls the weighted driver. Zero fields take defaults.
type Params struct {
	// Eps is the target slack. It fixes the driver's other constants:
	// K = ⌈1/ε⌉ + 1 matched layers, Algorithm 6's weight-class grid base
	// 1+ε (paper: 1+ε⁴) and its class separation 1/ε² (paper: 1/ε²⁰).
	Eps float64
	// Batch is how many independent instances feed one conflict-resolution
	// round (they may conflict with each other; Algorithms 5/6 arbitrate).
	Batch int
	// KeepProb is Algorithm 5's sampling probability. The paper's value is
	// ε⁹/2, chosen to bound intersection chains analytically; with our
	// joint-applicability greedy the practical default 1.0 is safe and
	// faster. Set it below 1 to exercise the paper's regime.
	KeepProb float64
	// Retries escalation, as in the unweighted driver.
	Retries    int
	MaxRetries int
	MaxRounds  int
	// Workers is the worker-pool width for the parallel candidate
	// generation (instance building, growing, and within-resolution all
	// read the matching without mutating it, so the per-(k, instance) jobs
	// run concurrently); 0 selects GOMAXPROCS. RNG streams are split off
	// deterministically per job and the pool is assembled in job order, so
	// the result is identical for every worker count.
	Workers int
}

// stallRounds is the fallback stopping rule: stop after this many
// consecutive rounds at MaxRetries that apply nothing. A round that applies
// nothing first runs the weight certificate (matching.CertifyMaxWeight),
// which stops the driver at once where it proves M of maximum weight — on
// a bipartite graph whenever M is optimal and no zero-gain alternating walk
// or cycle exists, and never on a matching that is not optimal.
const stallRounds = 3

// DefaultParams returns practical defaults for slack eps.
func DefaultParams(eps float64) Params { return Params{Eps: eps} }

func (p Params) withDefaults() Params {
	if p.Eps <= 0 {
		p.Eps = 0.25
	}
	if p.Batch <= 0 {
		p.Batch = 4
	}
	if p.KeepProb <= 0 {
		p.KeepProb = 1
	}
	if p.Retries <= 0 {
		p.Retries = 4
	}
	if p.MaxRetries < p.Retries {
		p.MaxRetries = 64
		if p.MaxRetries < p.Retries {
			p.MaxRetries = p.Retries
		}
	}
	if p.MaxRounds <= 0 {
		p.MaxRounds = 300
	}
	return p
}

// Result reports the weighted driver's outcome.
type Result struct {
	M            *matching.BMatching
	Rounds       int // driver rounds (resolution batches)
	WalksApplied int
	WeightStart  float64
	WeightEnd    float64
	// Instances counts layered graphs built; in MPC each costs O(k)
	// alternating-extension rounds (Lemma 5.5) and each resolution batch a
	// further O(1) rounds (Lemmas 5.7/5.8), so EstMPCRounds is the round
	// observable for Theorem 5.1. It charges neither the weighted fill nor
	// the weight certificate.
	Instances    int
	EstMPCRounds int
	// Certified reports that the driver stopped because
	// matching.CertifyMaxWeight proved M of maximum weight; false means the
	// stall rule or MaxRounds stopped it.
	Certified bool
}

// OnePlusEpsWeightedCtx computes a (1+ε)-approximate maximum weight
// b-matching. If initial is nil, the weight-sorted greedy (2-approximate)
// is used as the starting point; otherwise initial is improved in place.
//
// ctx is checked at every driver round (and inside the parallel candidate
// generation, so cancelled rounds free the worker pool without waiting for
// all jobs), and a cancelled run returns ctx's error. A fresh run with the
// same seed is bit-identical to one that was never cancelled.
func OnePlusEpsWeightedCtx(ctx context.Context, g *graph.Graph, b graph.Budgets, initial *matching.BMatching, params Params, r *rng.RNG) (*Result, error) {
	params = params.withDefaults()
	m := initial
	if m == nil {
		m = matching.MustNew(g, b)
	}
	// Weight-descending edge order, computed once for all fill passes.
	order := graph.SortEdgesByWeightDesc(g)
	weightedFill(m, order)

	K := int(math.Ceil(1/params.Eps)) + 1
	classBase, spread := 1+params.Eps, 1/(params.Eps*params.Eps)
	res := &Result{M: m, WeightStart: m.Weight()}
	stall := 0
	retries := params.Retries
	for round := 0; round < params.MaxRounds && stall < stallRounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res.Rounds++
		// Sweep every layer count up to K: short swap walks are far more
		// likely to survive a small-k layering, long ones need larger k
		// (mirroring the unweighted driver's per-k sweeps). The matching is
		// not mutated until ApplyAll below, so the per-(k, instance) jobs
		// run on the worker pool; RNGs are pre-split in job order, keeping
		// the pool bit-for-bit identical to the serial sweep.
		type genJob struct {
			k          int
			rB, rG, rR *rng.RNG
			out        []Candidate
		}
		var jobs []genJob
		for k := 1; k <= K; k++ {
			for i := 0; i < params.Batch*retries; i++ {
				jobs = append(jobs, genJob{k: k, rB: r.Split(), rG: r.Split(), rR: r.Split()})
			}
		}
		//lint:parallel jobs write only their own out slot with pre-split RNGs; the pool is assembled serially in job order
		par.ParallelFor(params.Workers, len(jobs), func(j int) {
			if ctx.Err() != nil {
				return // round aborts below before using any job output
			}
			job := &jobs[j]
			// The layered instance lives only inside this job, so its flat
			// arrays come from a pooled arena; the surviving candidates are
			// arena-free copies.
			ar, done := scratch.Borrow(nil)
			defer done()
			inst := buildInstanceScratch(m, job.k, job.rB, ar)
			cands := inst.growScratch(job.rG, ar)
			job.out = ResolveWithin(cands, m, params.KeepProb, job.rR)
		})
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var pool []Candidate
		for j := range jobs {
			pool = append(pool, jobs[j].out...)
			res.Instances++
			res.EstMPCRounds += jobs[j].k
		}
		res.EstMPCRounds += 2 // conflict resolution: O(1) rounds per batch
		resolved := ResolveBetween(pool, m, classBase, spread)
		applied, _ := ApplyAll(resolved, m)
		weightedFill(m, order)
		res.WalksApplied += applied
		if applied == 0 {
			// Certified optimal: every walk a later round could find has a
			// float gain ≤ 0, and fill has nothing left to add. Stop.
			if matching.CertifyMaxWeight(m) {
				res.Certified = true
				break
			}
			if retries < params.MaxRetries {
				retries *= 2
				if retries > params.MaxRetries {
					retries = params.MaxRetries
				}
			} else {
				stall++
			}
		} else {
			stall = 0
			retries = params.Retries
		}
	}
	res.WeightEnd = m.Weight()
	return res, nil
}

// weightedFill adds addable edges heaviest-first (always a weight gain).
// order is the weight-descending edge order, precomputed by the caller.
func weightedFill(m *matching.BMatching, order []int32) {
	g := m.Graph()
	for _, e := range order {
		if g.Edges[e].W > 0 && m.CanAdd(e) {
			if err := m.Add(e); err != nil {
				panic(err) // CanAdd just returned true
			}
		}
	}
}
