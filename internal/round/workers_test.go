package round

import (
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// TestRoundDeterministicAcrossWorkers: the parallel repeats pre-split
// their RNG streams and the winner is chosen by the same in-order scan as
// the serial code, so the returned matching is identical for every worker
// count.
func TestRoundDeterministicAcrossWorkers(t *testing.T) {
	r := rng.New(5)
	g := graph.Gnm(200, 2400, r.Split())
	b := graph.RandomBudgets(200, 1, 3, r.Split())
	x := make([]float64, g.M())
	for e := range x {
		x[e] = float64((e%7)+1) / 8
	}
	run := func(workers int) []bool {
		p := DefaultParams()
		p.Workers = workers
		m := mustRound(t, g, b, x, p, rng.New(77))
		in := make([]bool, g.M())
		for e := 0; e < g.M(); e++ {
			in[e] = m.Contains(int32(e))
		}
		return in
	}
	ref := run(1)
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		got := run(workers)
		for e := range ref {
			if got[e] != ref[e] {
				t.Fatalf("workers=%d: rounding diverged at edge %d", workers, e)
			}
		}
	}
}
