// Command bmatch runs any of the library's algorithms on a generated or
// user-supplied graph and prints the outcome with its certificates. Every
// solve goes through the unified bmatch.Solve / bmatch.SolveStream API —
// the same dispatch the bmatchd daemon serves.
//
// Usage examples:
//
//	bmatch -algo approx  -gen gnm -n 2000 -m 40000 -b 3
//	bmatch -algo max     -gen bipartite -n 400 -m 3000 -eps 0.25
//	bmatch -algo maxw    -gen clientserver -n 2000 -seed 7 -workers 4
//	bmatch -algo maxw    -gen assignment -n 2000 -m 12000
//	bmatch -algo greedy  -gen skew -n 4000 -m 32000
//	bmatch -algo frac    -gen gnm -n 1000 -m 20000
//	bmatch -algo stream  -gen gnm -n 1000 -m 100000 -b 2
//	bmatch -algo greedy  -input edges.txt -b 2
//	bmatch -input edges.txt -convert edges.bmg
//
// Input files (with -input) use the graphio format: "n <count>" then
// "e <u> <v> [w]" and optional "b <v> <budget>" lines; a bare edge list
// with an integer first line is also accepted.
//
// With -convert, no solve runs: the instance (read or generated) is
// re-encoded to the compact BMG1 binary format and written to the given
// file. Binary ingest is ~6× faster than text parsing, so pre-converting
// hot instances pays off for anything posted to bmatchd repeatedly.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	bmatch "repro"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/rng"
)

var (
	algoFlag    = flag.String("algo", "approx", "approx | max | maxw | frac | stream | streamw | greedy")
	genFlag     = flag.String("gen", "gnm", "gnm | bipartite | assignment | powerlaw | skew | clientserver | star")
	inputFlag   = flag.String("input", "", "read the graph from a file instead of generating")
	nFlag       = flag.Int("n", 1000, "vertices (generators)")
	mFlag       = flag.Int("m", 10000, "edges (generators)")
	bFlag       = flag.Int("b", 2, "uniform budget (0 = random in [1,4])")
	epsFlag     = flag.Float64("eps", 0.25, "approximation slack for (1+eps) algorithms")
	seedFlag    = flag.Int64("seed", 1, "random seed")
	workersFlag = flag.Int("workers", 0, "solver-internal parallelism (0 = GOMAXPROCS; output is identical for every value)")
	wFlag       = flag.Bool("weighted", false, "draw uniform weights in [1,10) (generators)")
	valuesFlag  = flag.String("values", "", "solver value precision for -algo frac: f64 (default) or f32 (halved hot-vector traffic, see README \"Value modes\")")
	paperFlag   = flag.Bool("paper", false, "use the paper's exact constants (T = floor(log2(N)/1000) local iterations per compression step, 0 for every N below 2^1000)")
	convertFlag = flag.String("convert", "", "write the instance to this file in BMG1 binary format and exit (no solve)")
	streamFlag  = flag.String("stream-out", "", "generate straight to this BMG1 file edge by edge and exit (no solve; O(1) extra memory, so 10^8-edge instances are fine; -gen gnm or bipartite)")
)

func main() {
	flag.Parse()
	req := bmatch.Request{
		Seed:           *seedFlag,
		Eps:            *epsFlag,
		Workers:        *workersFlag,
		PaperConstants: *paperFlag,
		ValueMode:      *valuesFlag,
	}
	switch *algoFlag {
	case "stream":
		req.Algo = bmatch.AlgoMax
	case "streamw":
		req.Algo = bmatch.AlgoMaxWeight
	case "greedy", "greedyw":
		// Both names select the unified greedy — the weight-sorted
		// 2-approximate baseline the daemon serves as algo=greedy. (The
		// pre-unified-API CLI ran an id-order scan under "greedy"; on
		// weighted inputs the weight-sorted scan can return a different —
		// typically heavier — matching for the same seed.)
		req.Algo = bmatch.AlgoGreedy
	default:
		req.Algo = bmatch.Algo(*algoFlag)
	}
	// Reject bad flags before any work: the same Request validation guards
	// the library entry points and the bmatchd request boundary.
	if err := req.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "bmatch:", err)
		os.Exit(2)
	}
	if *streamFlag != "" {
		if err := streamGenerate(*streamFlag); err != nil {
			fmt.Fprintln(os.Stderr, "bmatch:", err)
			os.Exit(1)
		}
		return
	}
	g, b, err := buildInstance()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bmatch:", err)
		os.Exit(1)
	}
	fmt.Printf("instance: n=%d m=%d d̄=%.1f Σb=%d\n", g.N, g.M(), g.AvgDeg(), b.Sum())

	if *convertFlag != "" {
		payload := graphio.AppendBinaryTo(nil, g, b)
		if err := os.WriteFile(*convertFlag, payload, 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s: %d bytes BMG1 (binary ingest is ~6× faster than text)\n",
			*convertFlag, len(payload))
		return
	}

	ctx := context.Background()
	start := time.Now()
	switch *algoFlag {
	case "stream":
		rep, err := bmatch.SolveStream(ctx, bmatch.NewSliceStream(g), g.N, b, req)
		fail(err)
		fmt.Printf("streaming (1+ε): |M|=%d passes=%d peak=%d words (m=%d)\n",
			rep.Size, rep.Stream.Passes, rep.Stream.PeakWords, g.M())
	case "streamw":
		rep, err := bmatch.SolveStream(ctx, bmatch.NewSliceStream(g), g.N, b, req)
		fail(err)
		fmt.Printf("streaming weighted: |M|=%d weight=%.1f passes=%d peak=%d words\n",
			rep.Size, rep.Weight, rep.Stream.Passes, rep.Stream.PeakWords)
	default:
		rep, err := bmatch.Solve(ctx, g, b, req)
		fail(err)
		switch rep.Algo {
		case bmatch.AlgoApprox:
			fmt.Printf("Θ(1)-approx: |M|=%d weight=%.1f\n", rep.Size, rep.Weight)
			fmt.Printf("certificate: OPT ≤ %.0f (ratio ≥ %.3f)\n",
				rep.Stats.DualBound, float64(rep.Size)/rep.Stats.DualBound)
			fmt.Printf("MPC: %d compression steps, %d rounds, max %d edges/machine\n",
				rep.Stats.CompressionSteps, rep.Stats.MPCRounds, rep.Stats.MaxMachineEdges)
		case bmatch.AlgoMax:
			fmt.Printf("(1+ε) unweighted: |M|=%d (ε=%.3f)\n", rep.Size, *epsFlag)
		case bmatch.AlgoMaxWeight:
			fmt.Printf("(1+ε) weighted: |M|=%d weight=%.1f (ε=%.3f)\n", rep.Size, rep.Weight, *epsFlag)
		case bmatch.AlgoFrac:
			fmt.Printf("fractional LP: value=%.2f, OPT ≤ %.0f, cover |V|=%d |E_slack|=%d\n",
				rep.Frac.Value, rep.Frac.DualBound, len(rep.Frac.CoverVertices), len(rep.Frac.CoverSlackEdges))
			fmt.Printf("MPC: %d compression steps, %d rounds\n",
				rep.Frac.CompressionSteps, rep.Frac.MPCRounds)
		case bmatch.AlgoGreedy:
			fmt.Printf("greedy (2-approx): |M|=%d weight=%.1f\n", rep.Size, rep.Weight)
		}
	}
	fmt.Printf("elapsed: %v\n", time.Since(start).Round(time.Millisecond))
}

// streamGenerate writes a generated instance straight to a BMG1 file, one
// edge at a time: the generator's callback feeds graphio.BinaryWriter, so
// peak memory is the budget vector plus the output buffer no matter how
// large -m is. RNG split order matches buildInstance (generator first,
// budgets second), so seeds are comparable across the two paths.
func streamGenerate(path string) error {
	n, m := *nFlag, *mFlag
	r := rng.New(*seedFlag)
	gr, br := r.Split(), r.Split()
	var b graph.Budgets
	if *bFlag > 0 {
		b = graph.UniformBudgets(n, *bFlag)
	} else {
		b = graph.RandomBudgets(n, 1, 4, br)
	}
	wlo, whi := 0.0, 0.0
	if *wFlag {
		wlo, whi = 1, 10
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := graphio.NewBinaryWriter(f, n, m, b, *wFlag)
	if err != nil {
		return err
	}
	start := time.Now()
	switch *genFlag {
	case "gnm":
		err = graph.GnmStream(n, m, wlo, whi, gr, w.Edge)
	case "bipartite":
		err = graph.BipartiteStream(n/2, n-n/2, m, wlo, whi, gr, w.Edge)
	default:
		return fmt.Errorf("-stream-out supports -gen gnm or bipartite, not %q", *genFlag)
	}
	if err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: n=%d m=%d, %d bytes BMG1 in %v (streamed, O(1) memory)\n",
		path, n, m, st.Size(), time.Since(start).Round(time.Millisecond))
	return nil
}

func buildInstance() (*graph.Graph, graph.Budgets, error) {
	if *inputFlag != "" {
		g, b, err := graphio.ReadFile(*inputFlag)
		if err != nil {
			return nil, nil, err
		}
		// An explicitly passed -b overrides budgets the file left at the
		// default of 1 (the flag's default value does not).
		bSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "b" {
				bSet = true
			}
		})
		if bSet && *bFlag > 1 {
			for v := range b {
				if b[v] == 1 {
					b[v] = *bFlag
				}
			}
		}
		return g, b, nil
	}
	r := rng.New(*seedFlag)
	n, m := *nFlag, *mFlag
	var g *graph.Graph
	var b graph.Budgets
	switch *genFlag {
	case "gnm":
		if *wFlag {
			g = graph.GnmWeighted(n, m, 1, 10, r.Split())
		} else {
			g = graph.Gnm(n, m, r.Split())
		}
	case "bipartite":
		if *wFlag {
			g = graph.BipartiteWeighted(n/2, n-n/2, m, 1, 10, r.Split())
		} else {
			g = graph.Bipartite(n/2, n-n/2, m, r.Split())
		}
	case "powerlaw":
		// The social-graph family: Chung-Lu degrees plus tie-strength
		// weights and degree-scaled budgets (b(v) = 1+⌊√deg⌋, capped).
		g, b = graph.PowerLawSocial(n, m, 2.3, r.Split())
		return g, overrideBudgets(b), nil
	case "assignment":
		// Bipartite assignment market: ~1 firm per 8 workers, degree sized
		// so the application count lands near -m.
		workers := n * 7 / 8
		firms := n - workers
		if firms < 1 {
			firms, workers = 1, n-1
		}
		degree := 2 * (m / workers)
		if degree < 1 {
			degree = 1
		}
		g, b = graph.AssignmentMarket(workers, firms, degree, r.Split())
		return g, overrideBudgets(b), nil
	case "skew":
		g, b = graph.AdversarialSkew(n, m, r.Split())
		return g, overrideBudgets(b), nil
	case "clientserver":
		cs, budgets := graph.ClientServer(n, n/20+1, 6, 3, 40, r.Split())
		return cs, budgets, nil
	case "star":
		g = graph.Star(n)
	default:
		return nil, nil, fmt.Errorf("unknown -gen %q", *genFlag)
	}
	if *bFlag > 0 {
		b = graph.UniformBudgets(g.N, *bFlag)
	} else {
		b = graph.RandomBudgets(g.N, 1, 4, r.Split())
	}
	return g, b, nil
}

// overrideBudgets replaces a family's own budget vector with a uniform one
// only when -b was passed explicitly — the flag's default must not clobber
// the budgets the instance family derived (capacities, degree scaling).
func overrideBudgets(b graph.Budgets) graph.Budgets {
	bSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "b" {
			bSet = true
		}
	})
	if bSet && *bFlag > 0 {
		return graph.UniformBudgets(len(b), *bFlag)
	}
	return b
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bmatch:", err)
		os.Exit(1)
	}
}
