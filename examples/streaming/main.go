// Semi-streaming b-matching: process an edge stream that is far larger than
// the memory budget. The algorithm keeps only Õ(Σb_v) words — the matched
// edges plus O(1/ε)-length path state — and re-derives every unmatched
// edge's random orientation and layer from a k-wise independent hash on
// each pass (Section 4.6), instead of storing O(m) per-edge coins.
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
	// m = 200k edges but Σb ≈ 3k: storing per-edge state would need ~66x
	// more memory than the streaming budget.
	r := rng.New(3)
	g := graph.Gnm(1500, 200000, r.Split())
	b := graph.RandomBudgets(1500, 1, 3, r.Split())
	fmt.Printf("stream: m = %d edges; memory budget Õ(Σb) with Σb = %d\n", g.M(), b.Sum())

	ctx := context.Background()
	onePass, err := bmatch.SolveStream(ctx, bmatch.NewSliceStream(g), g.N, b,
		// ε near the top of the accepted (0,1) range: the shortest walk
		// length the contract allows, effectively greedy plus few rounds.
		bmatch.Request{Algo: bmatch.AlgoMax, Seed: 1, Eps: 0.99})
	if err != nil {
		log.Fatal(err)
	}
	multi, err := bmatch.SolveStream(ctx, bmatch.NewSliceStream(g), g.N, b,
		bmatch.Request{Algo: bmatch.AlgoMax, Seed: 1, Eps: 0.5})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-22s %8s %8s %12s\n", "variant", "|M|", "passes", "peak words")
	fmt.Printf("%-22s %8d %8d %12d\n", "near-greedy (ε=.99)", onePass.Size, onePass.Stream.Passes, onePass.Stream.PeakWords)
	fmt.Printf("%-22s %8d %8d %12d\n", "multi-pass (ε=0.5)", multi.Size, multi.Stream.Passes, multi.Stream.PeakWords)
	fmt.Printf("\npeak memory vs m: %.1f%% — the stream was never stored\n",
		100*float64(multi.Stream.PeakWords)/float64(3*g.M()))
}
