package frac

import (
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// TestOneRoundMPCDeterministicAcrossWorkers: the compression step must
// produce bit-for-bit identical solutions and simulator stats for every
// worker count (the parallel delivery pipeline merges shards in sender
// order, so scheduling never leaks into results).
func TestOneRoundMPCDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *OneRoundResult {
		r := rng.New(1234)
		g := graph.Gnm(300, 4500, r.Split())
		p := BMatchingProblem(g, graph.RandomBudgets(300, 1, 3, r.Split()))
		params := PracticalParams()
		params.Workers = workers
		return oneRoundRun(t, p, params, nil, r.Split())
	}
	ref := run(1)
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		got := run(workers)
		if got.Stats != ref.Stats {
			t.Fatalf("workers=%d: stats %+v != workers=1 stats %+v", workers, got.Stats, ref.Stats)
		}
		if got.N != ref.N || got.T != ref.T || got.Machines != ref.Machines ||
			got.MaxMachineEdges != ref.MaxMachineEdges {
			t.Fatalf("workers=%d: shape diverged: %+v vs %+v", workers, got, ref)
		}
		for e := range ref.X {
			if got.X[e] != ref.X[e] {
				t.Fatalf("workers=%d: x[%d] = %v, want %v", workers, e, got.X[e], ref.X[e])
			}
		}
	}
}

// TestFullMPCDeterministicAcrossWorkers covers the full driver, including
// the aggregated SimStats.
func TestFullMPCDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *FullResult {
		r := rng.New(99)
		g := graph.CoreFringe(200, 200*40, 400, 200, r.Split())
		p := BMatchingProblem(g, graph.RandomBudgets(g.N, 1, 3, r.Split()))
		params := PracticalParams()
		params.Workers = workers
		return fullMPCRun(t, p, params, r.Split())
	}
	ref := run(1)
	got := run(4)
	if got.Iterations != ref.Iterations || got.MPCSteps != ref.MPCSteps ||
		got.TotalSimRounds != ref.TotalSimRounds || got.SimStats != ref.SimStats ||
		got.Converged != ref.Converged {
		t.Fatalf("workers=4 diverged: %+v vs %+v", got, ref)
	}
	for e := range ref.X {
		if got.X[e] != ref.X[e] {
			t.Fatalf("x[%d] = %v, want %v", e, got.X[e], ref.X[e])
		}
	}
	if ref.MPCSteps > 0 && ref.SimStats.TotalTraffic == 0 {
		t.Fatal("SimStats not aggregated")
	}
}
