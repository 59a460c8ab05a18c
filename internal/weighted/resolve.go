// Conflict resolution: Algorithm 5 (within one layered graph) and
// Algorithm 6 (between layered graphs of different weight classes).
//
// Intersection is defined as in the paper's footnote: multiple
// augmentations may pass through the same vertex v as long as at most b_v
// of them do and they are edge-disjoint — i.e. the kept set must be jointly
// applicable against the budgets. The greedy acceptance below tests exactly
// joint applicability (on a scratch copy of the matching), which is the
// operational content of the Decompress∩-disjointness checks on Lines
// 12/9 of Algorithms 5/6.
package weighted

import (
	"math"
	"sort"

	"repro/internal/matching"
	"repro/internal/rng"
)

// ResolveWithin implements Algorithm 5 for one layered graph's candidates:
// each candidate survives an independent coin with probability keepProb
// (the paper uses ε⁹/2 to bound intersection chains; the practical default
// is higher — see Params.KeepProb), is reduced to its best-gain component
// (Line 6, via Algorithm 4), and is then kept only if it remains jointly
// applicable with the already-kept set. No coin is drawn when
// keepProb ≥ 1.
func ResolveWithin(cands []Candidate, m *matching.BMatching, keepProb float64, r *rng.RNG) []Candidate {
	if len(cands) == 0 {
		return nil
	}
	scratch := m.Clone()
	var kept []Candidate
	for _, c := range cands {
		if keepProb < 1 && !r.Bernoulli(keepProb) {
			continue
		}
		best, err := BestComponent(c.Walk, m)
		if err != nil || best == nil {
			continue
		}
		gain := best.Gain(m)
		if gain <= 0 || best.Apply(scratch) != nil {
			continue // no gain, or intersects a kept augmentation
		}
		kept = append(kept, Candidate{Walk: *best, Gain: gain})
	}
	return kept
}

// WeightClass returns the geometric class index of a gain: the largest i
// with base^i ≤ gain (classes are W_i = base^i, the paper's (1+ε⁴)^i grid).
func WeightClass(gain, base float64) int {
	if gain <= 0 {
		return math.MinInt32
	}
	return int(math.Floor(math.Log(gain) / math.Log(base)))
}

// ResolveBetween implements Algorithm 6: candidates (already within-resolved,
// possibly from many layered graphs) are bucketed by weight class, classes
// are partitioned into t groups of geometrically separated classes, each
// group keeps walks greedily from the heaviest class down, and the group
// with the largest kept gain wins.
//
// t is chosen as the smallest integer with base^t ≥ spread, mirroring
// Line 2 of Algorithm 6 (the paper's spread is 1/ε²⁰; the driver passes
// base 1+ε and spread 1/ε²).
func ResolveBetween(cands []Candidate, m *matching.BMatching, base, spread float64) []Candidate {
	if len(cands) == 0 {
		return nil
	}
	t := 1
	for p := base; p < spread && t < 64; p *= base {
		t++
	}

	// Bucket by class and sort classes descending.
	byClass := make(map[int][]Candidate)
	for _, c := range cands {
		byClass[WeightClass(c.Gain, base)] = append(byClass[WeightClass(c.Gain, base)], c)
	}
	classes := make([]int, 0, len(byClass))
	//lint:sorted classes are collected here and sorted descending before use
	for cl := range byClass {
		classes = append(classes, cl)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(classes)))

	bestGain := math.Inf(-1)
	var best []Candidate
	for j := 0; j < t; j++ {
		scratch := m.Clone()
		var kept []Candidate
		var gain float64
		for _, cl := range classes {
			if ((cl%t)+t)%t != j {
				continue
			}
			for _, c := range byClass[cl] {
				if err := c.Walk.Apply(scratch); err != nil {
					continue // intersects a kept heavier augmentation
				}
				kept = append(kept, c)
				gain += c.Gain
			}
		}
		if gain > bestGain {
			bestGain, best = gain, kept
		}
	}
	return best
}

// ApplyAll applies candidates in order, skipping any that have become
// inapplicable (which cannot happen for a properly resolved set); it
// returns the number applied and the realized gain.
func ApplyAll(cands []Candidate, m *matching.BMatching) (applied int, gain float64) {
	for _, c := range cands {
		before := m.Weight()
		if err := c.Walk.Apply(m); err != nil {
			continue
		}
		applied++
		gain += m.Weight() - before
	}
	return applied, gain
}
