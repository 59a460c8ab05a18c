// Weighted b-matching as an auction: bidders place weighted bids on items;
// each bidder may win at most b_bidder items and each item may be sold to
// at most b_item buyers (think ad slots with multiplicity). The exact
// optimum is computable here because the market is bipartite, so the
// example reports true approximation ratios for greedy versus the paper's
// (1+ε) algorithm at several ε.
package main

import (
	"context"
	"fmt"
	"log"

	bmatch "repro"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/rng"
)

func main() {
	const bidders, items = 120, 40
	r := rng.New(21)
	g := graph.BipartiteWeighted(bidders, items, 2400, 1, 100, r.Split())
	b := make(graph.Budgets, g.N)
	for v := 0; v < bidders; v++ {
		b[v] = 1 + r.Intn(3) // bidders want 1-3 items
	}
	for v := bidders; v < g.N; v++ {
		b[v] = 2 + r.Intn(6) // items have 2-7 slots
	}

	opt, err := exact.MaxWeightBipartite(g, b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("auction: %d bidders, %d items, %d bids; optimal revenue %.0f\n",
		bidders, items, g.M(), opt)

	ctx := context.Background()
	gm, err := bmatch.Solve(ctx, g, b, bmatch.Request{Algo: bmatch.AlgoGreedy})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%-18s %10s %8s\n", "algorithm", "revenue", "ratio")
	fmt.Printf("%-18s %10.0f %8.4f\n", "greedy (2-approx)", gm.Weight, gm.Weight/opt)

	// ε must lie in (0,1) (Request.Validate); 0.99 is the coarsest accepted
	// slack and behaves like the K=2 near-greedy end of the spectrum.
	for _, eps := range []float64{0.99, 0.5, 0.25} {
		rep, err := bmatch.Solve(ctx, g, b, bmatch.Request{Algo: bmatch.AlgoMaxWeight, Seed: 1, Eps: eps})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s %10.0f %8.4f\n",
			fmt.Sprintf("(1+ε), ε=%.2f", eps), rep.Weight, rep.Weight/opt)
	}
	fmt.Println("\nratios should approach 1.0 as ε shrinks (Theorem 5.1).")
}
