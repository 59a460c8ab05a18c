// Quickstart: compute b-matchings on a small random graph with the three
// headline algorithms — all through the unified Solve API (one Request
// type, one call, every algorithm) — and print what the paper's theorems
// promise about each result.
package main

import (
	"context"
	"fmt"
	"log"

	bmatch "repro"
	"repro/internal/graph"
	"repro/internal/rng"
)

func main() {
	// A random graph with 1000 vertices, average degree 40, and
	// heterogeneous budgets in [1, 5].
	r := rng.New(42)
	g := graph.Gnm(1000, 20000, r.Split())
	b := graph.RandomBudgets(1000, 1, 5, r.Split())
	fmt.Printf("graph: n=%d m=%d avg-degree=%.1f, budgets Σb=%d\n",
		g.N, g.M(), g.AvgDeg(), b.Sum())
	ctx := context.Background()

	// Θ(1)-approximation in O(log log d̄) MPC rounds (Theorem 3.1). The
	// Report carries the matching and the run's certificate + MPC stats.
	rep, err := bmatch.Solve(ctx, g, b, bmatch.Request{Algo: bmatch.AlgoApprox, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nTheorem 3.1 (Θ(1)-approx MPC):\n")
	fmt.Printf("  |M| = %d, certified OPT ≤ %.0f (ratio ≥ %.2f)\n",
		rep.Size, rep.Stats.DualBound, float64(rep.Size)/rep.Stats.DualBound)
	fmt.Printf("  compression steps = %d (≈ log log d̄ = %.1f), MPC rounds = %d\n",
		rep.Stats.CompressionSteps, logLog(g.AvgDeg()), rep.Stats.MPCRounds)
	fmt.Printf("  max edges on one machine = %d (Õ(n) bound, n = %d)\n",
		rep.Stats.MaxMachineEdges, g.N)

	// (1+ε)-approximation (Theorem 4.1), with a live progress callback:
	// Request.Progress fires at solver round/superstep checkpoints. How
	// often it fires counts the solver's work, so only the fact is printed.
	progressed := false
	rep2, err := bmatch.Solve(ctx, g, b, bmatch.Request{
		Algo: bmatch.AlgoMax, Seed: 1, Eps: 0.25,
		Progress: func(bmatch.Progress) { progressed = true },
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nTheorem 4.1 ((1+ε)-approx, ε=0.25):\n  |M| = %d (progress reported: %t)\n",
		rep2.Size, progressed)

	// Semi-streaming (Section 4.6) through the same Request contract.
	srep, err := bmatch.SolveStream(ctx, bmatch.NewSliceStream(g), g.N, b,
		bmatch.Request{Algo: bmatch.AlgoMax, Seed: 1, Eps: 0.5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nSemi-streaming (ε=0.5):\n")
	fmt.Printf("  |M| = %d using %d passes and %d words (m = %d edges)\n",
		srep.Size, srep.Stream.Passes, srep.Stream.PeakWords, g.M())
}

func logLog(d float64) float64 {
	if d <= 2 {
		return 0
	}
	l := 0.0
	for x := d; x > 2; x /= 2 {
		l++
	}
	ll := 0.0
	for x := l; x > 2; x /= 2 {
		ll++
	}
	return ll
}
