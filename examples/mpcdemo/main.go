// MPC anatomy: open up one round-compression step (Algorithm 2) and the
// full driver (Algorithm 3) on the simulator and print what the MPC model
// actually observes — machines, rounds, per-machine memory, traffic — next
// to the distributed baselines the paper improves on.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"repro/internal/baseline"
	"repro/internal/frac"
	"repro/internal/graph"
	"repro/internal/rng"
)

func main() {
	// Dense core + sparse fringe: the core drives d̄ up, so fringe vertices
	// start at q_v = 0.8·b_v/d̄ and the doubling process genuinely needs
	// Θ(log d̄) rounds (graph.CoreFringe).
	r := rng.New(99)
	g := graph.CoreFringe(1000, 1000*200, 3000, 1500, r.Split())
	b := graph.RandomBudgets(g.N, 1, 3, r.Split())
	p := frac.BMatchingProblem(g, b)
	ctx := context.Background()
	fmt.Printf("instance: n=%d m=%d d̄=%.0f\n\n", g.N, g.M(), g.AvgDeg())

	// One compression step under the microscope.
	one, err := p.OneRoundMPCCtx(ctx, frac.PracticalParams(), nil, r.Split())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("one round-compression step (Algorithm 2):")
	fmt.Printf("  partitions N = ⌈√d̄⌉ = %d, locally simulated iterations T = %d\n", one.N, one.T)
	fmt.Printf("  machines = %d, communication rounds = %d\n", one.Machines, one.Stats.Rounds)
	fmt.Printf("  max edges on a machine = %d (n = %d — the Õ(n) local memory bound)\n",
		one.MaxMachineEdges, g.N)
	fmt.Printf("  total traffic = %d words, max per-machine round IO = %d words\n\n",
		one.Stats.TotalTraffic, one.Stats.MaxRoundIO)

	// The full driver.
	full, err := p.FullMPCCtx(ctx, frac.PracticalParams(), r.Split())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("full driver (Algorithm 3):")
	fmt.Printf("  compression steps = %d (log2 log2 d̄ = %.1f), total MPC rounds = %d\n",
		full.Iterations, math.Log2(math.Log2(g.AvgDeg())), full.TotalSimRounds)
	for i, it := range full.History {
		mode := "sequential finish"
		if it.UsedMPC {
			mode = fmt.Sprintf("MPC (T=%d, %d rounds)", it.T, it.SimRounds)
		}
		fmt.Printf("  step %d: %8d active edges (avg deg %7.2f) — %s\n",
			i+1, it.ActiveEdges, it.AvgActiveDeg, mode)
	}

	// Distributed baselines for contrast.
	un, err := baseline.Uncompressed(ctx, p, r.Split())
	if err != nil {
		log.Fatal(err)
	}
	ii := baseline.IIMaximal(g, b, 0, r.Split())
	fmt.Println("\nbaselines:")
	fmt.Printf("  uncompressed doubling (KY09-style): %d rounds (Θ(log d̄))\n", un.Rounds)
	fmt.Printf("  Israeli–Itai-style maximal:         %d rounds (Θ(log n)), |M| = %d\n",
		ii.Rounds, ii.M.Size())
	fmt.Printf("\nthe paper's point: %d compression steps vs %d / %d baseline rounds\n",
		full.Iterations, un.Rounds, ii.Rounds)
}
