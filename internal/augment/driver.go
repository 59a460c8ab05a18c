// Package augment implements Section 4 of the paper: the (1+ε)
// approximation of unweighted b-matchings via short augmenting walks. Its
// pieces are random layered graphs with McGregor-style layer-by-layer path
// growing and the Compress trick of Section 4.4 (layered.go), and the
// (1+ε) driver of Lemma 4.6 (this file). The Decompress/Compress copy sets
// of Definitions 4.2/4.3 and the H-construction of Section 4.2 prove that
// short augmenting walks exist; no driver builds them, so they live in the
// package's tests, as oracles.
//
// The (1+ε) unweighted driver: algorithm B of Lemma 4.6. Starting from a
// Θ(1)-approximate (or greedy maximal) b-matching, it repeatedly draws
// random layered graphs for every walk length up to O(1/ε) and applies the
// disjoint augmenting walks found, until augmentations dry up. By Lemma 4.4
// (via the Section 4.2 correspondence), a matching with no remaining
// k-alternating augmenting walks is a (1 + 2/k)-approximation; its k = ∞
// case, Berge's lemma, is the driver's first stopping rule.
//
// Stopping. After every sweep that applied nothing, the driver runs
// matching.CertifyMaxSize and stops if it proves the matching maximum. The
// check is sound on every graph and fires on every maximum matching of a
// bipartite graph; on a non-bipartite graph an odd cycle can keep it
// silent. Where it does not fire, the stall rule (StallSweeps sweeps at
// the full retry budget) stops the driver. The certificate fires only on
// a maximum matching, from which no sweep applies a walk, so it changes
// Sweeps, Instances and EstMPCRounds but never M.
package augment

import (
	"context"
	"math"

	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/round"
	"repro/internal/scratch"
)

// Params controls the (1+ε) driver.
type Params struct {
	// Eps is the target approximation slack; walks up to K = ⌈2/ε⌉ matched
	// edges are searched.
	Eps float64
	// RetriesPerK is how many independent layered instances are drawn per
	// walk length per sweep. The paper's bound is exp(2^O(1/ε)) instances in
	// expectation; the default (8) suffices empirically at our scales
	// because sweeps repeat until augmentations dry up anyway.
	RetriesPerK int
	// MaxRetriesPerK caps the adaptive escalation: when a sweep finds no
	// augmentation, the retry budget doubles (up to this cap) before the
	// sweep counts toward StallSweeps. This realizes the paper's
	// "exp(O(1/ε)) instances in expectation" while keeping the common case
	// cheap. Default 256.
	MaxRetriesPerK int
	// StallSweeps: stop after this many consecutive full sweeps that apply
	// no augmentation (default 3). This is the fallback stopping rule: a
	// sweep that applies nothing first runs the maximality certificate
	// (matching.CertifyMaxSize), which stops the driver at once where it
	// proves M maximum — always on a bipartite graph once M is maximum,
	// and never on a matching that is not.
	StallSweeps int
	// MaxSweeps bounds total sweeps (default 200).
	MaxSweeps int
	// Workers is the worker-pool width for speculative instance
	// generation; 0 selects GOMAXPROCS. Tries are built and grown in
	// parallel against the current matching and their walks applied in try
	// order; a try whose speculation raced an earlier application is
	// replayed serially from the same RNG seeds, so the result is
	// bit-for-bit identical to the serial driver for every worker count.
	Workers int
}

// DefaultParams returns practical defaults for the given ε.
func DefaultParams(eps float64) Params {
	return Params{Eps: eps, RetriesPerK: 8, StallSweeps: 3, MaxSweeps: 200}
}

func (p Params) withDefaults() Params {
	if p.Eps <= 0 {
		p.Eps = 0.25
	}
	if p.RetriesPerK <= 0 {
		p.RetriesPerK = 8
	}
	if p.MaxRetriesPerK < p.RetriesPerK {
		p.MaxRetriesPerK = 256
		if p.MaxRetriesPerK < p.RetriesPerK {
			p.MaxRetriesPerK = p.RetriesPerK
		}
	}
	if p.StallSweeps <= 0 {
		p.StallSweeps = 3
	}
	if p.MaxSweeps <= 0 {
		p.MaxSweeps = 200
	}
	return p
}

// MaxK returns the largest number of matched edges per augmenting walk the
// driver searches for slack ε: K = ⌈2/ε⌉.
func (p Params) MaxK() int {
	return int(math.Ceil(2 / p.Eps))
}

// Result reports what the driver did.
type Result struct {
	M            *matching.BMatching
	Sweeps       int
	WalksApplied int
	SizeStart    int
	SizeEnd      int
	// Instances counts layered graphs built. In MPC each instance costs
	// O(k) rounds (one parallel extension step per layer, Lemma 5.5-style,
	// with the per-layer Θ(1)-approximate b'-matching of Section 4.4), so
	// EstMPCRounds = Σ over instances of (its k + 1) is the driver's round
	// observable for Theorem 4.1. It charges neither the greedy fill nor
	// the maximality certificate.
	Instances    int
	EstMPCRounds int
	// Certified reports that the driver stopped because
	// matching.CertifyMaxSize proved M a maximum b-matching; false means
	// the stall rule or MaxSweeps stopped it.
	Certified bool
}

// OnePlusEpsCtx improves the given matching to a (1+ε)-approximate maximum
// b-matching (with the probabilistic guarantees of Theorem 4.1). If initial
// is nil a greedy maximal matching is used as the starting point; otherwise
// initial is modified in place and must be a matching over g and b.
//
// ctx is checked at every sweep and every per-k wave of layered-instance
// tries, and a cancelled run returns ctx's error. The matching passed as
// initial may have absorbed some augmentations by then (it is improved in
// place); a fresh run with the same seed is bit-identical to one that was
// never cancelled.
func OnePlusEpsCtx(ctx context.Context, g *graph.Graph, b graph.Budgets, initial *matching.BMatching, params Params, r *rng.RNG) (*Result, error) {
	params = params.withDefaults()
	m := initial
	if m == nil {
		m = matching.MustNew(g, b)
	}
	// Maximality first: it removes all length-1 augmenting walks and is the
	// Θ(1)-approximate baseline of Lemma 4.6 when no better start is given.
	round.GreedyFill(m, false)

	res := &Result{M: m, SizeStart: m.Size()}
	K := params.MaxK()
	stall := 0
	retries := params.RetriesPerK
	for sweep := 0; sweep < params.MaxSweeps && stall < params.StallSweeps; sweep++ {
		res.Sweeps++
		appliedThisSweep := 0
		for k := 1; k <= K; k++ {
			applied, err := runTries(ctx, m, k, retries, params.Workers, r)
			if err != nil {
				return nil, err
			}
			appliedThisSweep += applied
			res.Instances += retries
			res.EstMPCRounds += retries * (k + 1)
		}
		// Applying walks can open room for plain edge additions; keep the
		// matching maximal between sweeps.
		round.GreedyFill(m, false)
		res.WalksApplied += appliedThisSweep
		if appliedThisSweep == 0 {
			// A maximum matching admits no augmenting walk and leaves greedy
			// fill nothing to add, so every later sweep would apply nothing:
			// stop on proof.
			if matching.CertifyMaxSize(m) {
				res.Certified = true
				break
			}
			// Escalate the search effort before giving up: rare walks need
			// exp(O(1/ε)) instances to appear in a random layering.
			if retries < params.MaxRetriesPerK {
				retries *= 2
				if retries > params.MaxRetriesPerK {
					retries = params.MaxRetriesPerK
				}
			} else {
				stall++
			}
		} else {
			stall = 0
			retries = params.RetriesPerK
		}
	}
	res.SizeEnd = m.Size()
	return res, nil
}

// runTries executes retries independent layered-instance tries for walk
// length k, applying found walks to m. Tries are speculatively built and
// grown in parallel waves against the unchanged matching (growScratch
// reads m but mutates only instance-local state); walks are then applied
// strictly in try order. Once a try in a wave applies a walk, the matching has
// diverged from what the later speculations saw, so those tries are
// replayed serially from the same reserved RNG seeds — making the output
// identical to the serial driver for every worker count. Walks dry up in
// the steady state, so the common case is a fully clean wave.
func runTries(ctx context.Context, m *matching.BMatching, k, retries, workers int, r *rng.RNG) (int, error) {
	type try struct {
		seedB, seedG int64
		walks        []matching.Walk
	}
	wave := min(par.PoolSize(workers)*4, retries)
	applied := 0
	for base := 0; base < retries; base += wave {
		if err := ctx.Err(); err != nil {
			return applied, err
		}
		tries := make([]try, min(wave, retries-base))
		for i := range tries {
			tries[i].seedB, tries[i].seedG = r.Reserve(), r.Reserve()
		}
		//lint:parallel tries write only their own slot with pre-reserved RNG seeds; acceptance replays serially in try order
		par.ParallelFor(workers, len(tries), func(i int) {
			if ctx.Err() != nil {
				return // caller aborts before applying anything from this wave
			}
			// Each speculative try borrows a pooled arena for its layered
			// instance; the extracted walks are arena-free, so the borrow
			// ends with the try.
			ar, done := scratch.Borrow(nil)
			defer done()
			L := buildLayeredScratch(m, k, rng.New(tries[i].seedB), ar)
			tries[i].walks = L.growScratch(rng.New(tries[i].seedG), ar)
		})
		if err := ctx.Err(); err != nil {
			return applied, err
		}
		clean := true
		for i := range tries {
			ws := tries[i].walks
			if !clean {
				ar, done := scratch.Borrow(nil)
				L := buildLayeredScratch(m, k, rng.New(tries[i].seedB), ar)
				ws = L.growScratch(rng.New(tries[i].seedG), ar)
				done()
			}
			for _, wk := range ws {
				if err := wk.Apply(m); err != nil {
					return applied, err
				}
				applied++
			}
			if len(ws) > 0 {
				clean = false
			}
		}
	}
	return applied, nil
}
