package weighted

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/rng"
)

// TestOnePlusEpsWeightedDeterministicAcrossWorkers: the parallel candidate
// generation pre-splits RNG streams in job order and assembles the pool in
// the same order as the serial sweep, so the driver's output is identical
// for every worker count.
func TestOnePlusEpsWeightedDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *Result {
		r := rng.New(21)
		g := graph.BipartiteWeighted(25, 25, 250, 1, 10, r.Split())
		b := graph.RandomBudgets(50, 1, 3, r.Split())
		params := DefaultParams(0.5)
		params.Workers = workers
		res, err := OnePlusEpsWeightedCtx(context.Background(), g, b, nil, params, r.Split())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1)
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		got := run(workers)
		if got.WeightEnd != ref.WeightEnd || got.WalksApplied != ref.WalksApplied ||
			got.Rounds != ref.Rounds || got.Instances != ref.Instances ||
			got.EstMPCRounds != ref.EstMPCRounds {
			t.Fatalf("workers=%d diverged: got {w %.3f walks %d rounds %d inst %d est %d}, "+
				"want {w %.3f walks %d rounds %d inst %d est %d}",
				workers, got.WeightEnd, got.WalksApplied, got.Rounds, got.Instances, got.EstMPCRounds,
				ref.WeightEnd, ref.WalksApplied, ref.Rounds, ref.Instances, ref.EstMPCRounds)
		}
		for e := 0; e < ref.M.Graph().M(); e++ {
			if got.M.Contains(int32(e)) != ref.M.Contains(int32(e)) {
				t.Fatalf("workers=%d: matching diverged at edge %d", workers, e)
			}
		}
	}
}

// TestResolveWithinMPCWorkersMatchesDefault: survivors and stats agree
// between worker counts.
func TestResolveWithinMPCWorkersMatchesDefault(t *testing.T) {
	r := rng.New(33)
	g := graph.Star(51)
	b := make(graph.Budgets, 51)
	b[0] = 50
	for i := 1; i <= 50; i++ {
		b[i] = 1
	}
	m := matching.MustNew(g, b)
	var cands []Candidate
	for e := 0; e < g.M(); e++ {
		cands = append(cands, Candidate{
			Walk: matching.Walk{EdgeIDs: []int32{int32(e)}, Start: int32(e + 1)},
			Gain: float64(1 + r.Intn(3)),
		})
	}
	ref, refStats := ResolveWithinMPC(cands, m, 8, 1)
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		got, gotStats := ResolveWithinMPC(cands, m, 8, workers)
		if gotStats != refStats {
			t.Fatalf("workers=%d: stats %+v != %+v", workers, gotStats, refStats)
		}
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d survivors, want %d", workers, len(got), len(ref))
		}
		for i := range ref {
			if got[i].Walk.Start != ref[i].Walk.Start || got[i].Gain != ref[i].Gain {
				t.Fatalf("workers=%d: survivor %d diverged", workers, i)
			}
		}
	}
}
