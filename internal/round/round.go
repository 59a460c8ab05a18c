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

// Params controls the rounding.
type Params struct {
	// SampleDivisor: edges are sampled with probability x_e/SampleDivisor.
	// The paper uses 4.
	SampleDivisor float64
	// Repeats: independent trials; the largest resulting matching is kept
	// (the paper's parallel repetition for boosting success probability).
	Repeats int
	// Weighted selects weight (instead of cardinality) as the maximized
	// objective across repeats.
	Weighted bool
	// Workers is the worker-pool width for running the repeats in
	// parallel; 0 selects GOMAXPROCS. The result is identical for every
	// value: each trial's RNG is split off deterministically up front and
	// the winner is chosen by the same in-order scan as the serial code.
	Workers int
}

// DefaultParams returns the paper's constants with 16 repeats.
func DefaultParams() Params { return Params{SampleDivisor: 4, Repeats: 16} }

// Sample performs one trial of the Lemma 3.3 scheme and returns a valid
// b-matching.
func Sample(g *graph.Graph, b graph.Budgets, x []float64, div float64, r *rng.RNG) *matching.BMatching {
	ar, done := scratch.Borrow(nil)
	defer done()
	return sampleScratch(g, b, x, div, r, ar)
}

// sampleScratch is Sample drawing its trial-local buffers (sample list,
// endpoint counters) from ar; only the returned matching is allocated.
func sampleScratch(g *graph.Graph, b graph.Budgets, x []float64, div float64, r *rng.RNG, ar *scratch.Arena) *matching.BMatching {
	sampled := ar.I32Raw(len(x) / 2)[:0]
	cnt := ar.I32(g.N)
	for e := range x {
		if x[e] <= 0 {
			continue
		}
		if r.Bernoulli(x[e] / div) {
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

// RoundCtx runs Params.Repeats independent trials and returns the best
// b-matching found. Trials still running when ctx is cancelled are skipped
// (each trial checks ctx before it starts), and a cancelled call returns
// ctx's error with no partial matching. A completed call does not depend on
// ctx: the trial RNGs are split off up front and the winner scan is
// serial.
func RoundCtx(ctx context.Context, g *graph.Graph, b graph.Budgets, x []float64, p Params, r *rng.RNG) (*matching.BMatching, error) {
	if p.SampleDivisor <= 0 {
		p.SampleDivisor = 4
	}
	if p.Repeats < 1 {
		p.Repeats = 1
	}
	rs := make([]*rng.RNG, p.Repeats)
	for t := range rs {
		rs[t] = r.Split()
	}
	trials := make([]*matching.BMatching, p.Repeats)
	//lint:parallel trials write only their own slot with pre-split RNGs; the best trial is picked serially in trial order
	par.ParallelFor(p.Workers, p.Repeats, func(t int) {
		if ctx.Err() != nil {
			return // result discarded below; skipping frees the pool fast
		}
		// Trials run on the worker pool, so each borrows a pooled arena
		// rather than sharing one; arena contents never affect the sample.
		ar, done := scratch.Borrow(nil)
		defer done()
		trials[t] = sampleScratch(g, b, x, p.SampleDivisor, rs[t], ar)
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var best *matching.BMatching
	for _, m := range trials {
		if best == nil {
			best = m
			continue
		}
		if p.Weighted {
			if m.Weight() > best.Weight() {
				best = m
			}
		} else if m.Size() > best.Size() {
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
	} else {
		order = make([]int32, g.M())
		for i := range order {
			order[i] = int32(i)
		}
	}
	for _, e := range order {
		if m.CanAdd(e) {
			if err := m.Add(e); err != nil {
				panic(err) // CanAdd just returned true
			}
		}
	}
}
