package augment

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// TestOnePlusEpsDeterministicAcrossWorkers: the speculative parallel
// instance generation must replay raced tries from the same RNG seeds, so
// the driver's output is identical for every worker count.
func TestOnePlusEpsDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *Result {
		r := rng.New(7)
		g := graph.Bipartite(40, 40, 360, r.Split())
		b := graph.RandomBudgets(80, 1, 3, r.Split())
		params := DefaultParams(0.5)
		params.Workers = workers
		res, err := OnePlusEpsCtx(context.Background(), g, b, nil, params, r.Split())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1)
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		got := run(workers)
		if got.SizeEnd != ref.SizeEnd || got.WalksApplied != ref.WalksApplied ||
			got.Sweeps != ref.Sweeps || got.Instances != ref.Instances ||
			got.EstMPCRounds != ref.EstMPCRounds {
			t.Fatalf("workers=%d diverged: got {size %d walks %d sweeps %d inst %d rounds %d}, "+
				"want {size %d walks %d sweeps %d inst %d rounds %d}",
				workers, got.SizeEnd, got.WalksApplied, got.Sweeps, got.Instances, got.EstMPCRounds,
				ref.SizeEnd, ref.WalksApplied, ref.Sweeps, ref.Instances, ref.EstMPCRounds)
		}
		for e := 0; e < ref.M.Graph().M(); e++ {
			if got.M.Contains(int32(e)) != ref.M.Contains(int32(e)) {
				t.Fatalf("workers=%d: matching diverged at edge %d", workers, e)
			}
		}
	}
}
