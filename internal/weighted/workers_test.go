package weighted

import (
	"context"
	"math"
	"runtime"
	"slices"
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

// TestResolveWithinWorkersBitIdentical: the blocked scoring stage must
// reproduce the serial resolver's kept set exactly for every width and
// grain — coins are pre-drawn in candidate order and acceptance replays
// serially, so nothing may depend on the partition.
func TestResolveWithinWorkersBitIdentical(t *testing.T) {
	oldGrain := resolveGrain
	t.Cleanup(func() { resolveGrain = oldGrain })

	r := rng.New(17)
	g := graph.BipartiteWeighted(30, 30, 300, 1, 10, r.Split())
	b := graph.RandomBudgets(60, 1, 2, r.Split())
	m := matching.MustNew(g, b)
	cands := make([]Candidate, g.M())
	for e := 0; e < g.M(); e++ {
		cands[e] = Candidate{
			Walk: matching.Walk{EdgeIDs: []int32{int32(e)}, Start: g.Edges[e].U},
			Gain: g.Edges[e].W,
		}
	}
	run := func(workers int) []Candidate {
		return ResolveWithin(cands, m, 0.6, rng.New(3), workers)
	}
	want := run(1)
	if len(want) == 0 {
		t.Fatal("reference resolver kept nothing; test instance too small")
	}
	for _, grain := range []int{1, 3, oldGrain} {
		resolveGrain = grain
		for _, workers := range []int{2, 4, 7} {
			got := run(workers)
			if len(got) != len(want) {
				t.Fatalf("grain %d workers %d: kept %d, serial kept %d",
					grain, workers, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i].Gain) != math.Float64bits(want[i].Gain) ||
					!slices.Equal(got[i].Walk.EdgeIDs, want[i].Walk.EdgeIDs) {
					t.Fatalf("grain %d workers %d: kept[%d] differs from serial", grain, workers, i)
				}
			}
		}
	}
}
