// Package round converts fractional b-matchings into integral ones by the
// sampling scheme of Lemma 3.3: sample each edge independently with
// probability x_e/4, then keep a sampled edge only if neither endpoint has
// more than its budget of sampled edges. The lemma shows E|M| ≥ (1/64)·Σx_e,
// so repeating a constant number of times and keeping the largest output
// yields an O(1/α)-approximate b-matching from an α-tight solution with any
// desired constant probability.
package round

import (
	"context"

	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/scratch"
)

// Each trial samples edge e with probability x_e/sampleDivisor (Lemma
// 3.3), and RoundCtx keeps the largest of repeats independent trials (the
// paper's parallel repetition, which boosts the success probability to any
// desired constant).
const (
	sampleDivisor = 4
	repeats       = 16
)

// Params controls the rounding.
type Params struct {
	// Workers is the worker-pool width for running the repeats in
	// parallel; 0 selects GOMAXPROCS. The result is identical for every
	// value: each trial's RNG is split off deterministically up front and
	// the winner is chosen by the same in-order scan as the serial code.
	Workers int
}

// DefaultParams returns the zero Params: repeats run on GOMAXPROCS
// workers.
func DefaultParams() Params { return Params{} }

// sampleScratch performs one trial of the Lemma 3.3 scheme and returns a
// valid b-matching. Its trial-local buffers (sample list, endpoint
// counters) come from ar; only the returned matching is allocated.
func sampleScratch(g *graph.Graph, b graph.Budgets, x []float64, r *rng.RNG, ar *scratch.Arena) *matching.BMatching {
	sampled := ar.I32Raw(len(x) / 2)[:0]
	cnt := ar.I32(g.N)
	for e := range x {
		if x[e] <= 0 {
			continue
		}
		if r.Bernoulli(x[e] / sampleDivisor) {
			ed := g.Edges[e]
			sampled = append(sampled, int32(e))
			cnt[ed.U]++
			cnt[ed.V]++
		}
	}
	m := matching.MustNew(g, b)
	for _, e := range sampled {
		ed := g.Edges[e]
		// Keep a sampled edge only if both endpoints saw at most b sampled
		// edges in total (the lemma's A_u ∩ A_v event).
		if int(cnt[ed.U]) <= b[ed.U] && int(cnt[ed.V]) <= b[ed.V] {
			if err := m.Add(e); err != nil {
				panic(err) // by the count filter both endpoints have room
			}
		}
	}
	return m
}

// RoundCtx runs repeats independent trials and returns the largest
// b-matching found. Trials still running when ctx is cancelled are skipped
// (each trial checks ctx before it starts), and a cancelled call returns
// ctx's error with no partial matching. A completed call does not depend on
// ctx: the trial RNGs are split off up front and the winner scan is
// serial.
func RoundCtx(ctx context.Context, g *graph.Graph, b graph.Budgets, x []float64, p Params, r *rng.RNG) (*matching.BMatching, error) {
	rs := make([]*rng.RNG, repeats)
	for t := range rs {
		rs[t] = r.Split()
	}
	trials := make([]*matching.BMatching, repeats)
	//lint:parallel trials write only their own slot with pre-split RNGs; the best trial is picked serially in trial order
	par.ParallelFor(p.Workers, repeats, func(t int) {
		if ctx.Err() != nil {
			return // result discarded below; skipping frees the pool fast
		}
		// Trials run on the worker pool, so each borrows a pooled arena
		// rather than sharing one; arena contents never affect the sample.
		ar, done := scratch.Borrow(nil)
		defer done()
		trials[t] = sampleScratch(g, b, x, rs[t], ar)
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	best := trials[0]
	for _, m := range trials[1:] {
		if m.Size() > best.Size() {
			best = m
		}
	}
	return best, nil
}

// GreedyFill augments a b-matching greedily: it scans all edges (heaviest
// first if weighted) and adds any edge both of whose endpoints still have
// spare budget. The rounding scheme leaves slack by design (sampling with
// x_e/4); filling greedily never hurts and substantially tightens the
// constants observed in experiment E3.
func GreedyFill(m *matching.BMatching, weighted bool) {
	g := m.Graph()
	var order []int32
	if weighted {
		order = graph.SortEdgesByWeightDesc(g)
	}
	for i := 0; i < g.M(); i++ {
		e := int32(i)
		if weighted {
			e = order[i]
		}
		if m.CanAdd(e) {
			if err := m.Add(e); err != nil {
				panic(err) // CanAdd just returned true
			}
		}
	}
}
