// Benchmarks: one testing.B target per experiment in DESIGN.md (E1–E12).
// The benchmarks measure the wall-clock cost of each pipeline; the
// corresponding correctness/shape tables are produced by cmd/experiments
// and recorded in EXPERIMENTS.md.
package bmatch

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/augment"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/coupling"
	"repro/internal/exact"
	"repro/internal/frac"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/matching"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/weighted"
)

// BenchmarkSequential (E1): the idealized doubling process at tightness-
// guaranteeing round counts. The workers dimension sweeps the blocked
// round kernels; the solution is bit-identical across the sweep.
func BenchmarkSequential(b *testing.B) {
	for _, d := range []int{16, 64} {
		n := 2000
		r := rng.New(1)
		g := graph.Gnm(n, n*d/2, r.Split())
		w := frac.NewView[float64](frac.BMatchingProblem(g, graph.UniformBudgets(n, 2)))
		T := frac.TightRounds(g.M())
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("d=%d/T=%d/workers=%d", d, T, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := w.Sequential(context.Background(), T, nil, rng.New(int64(i)), nil, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// hugeKernelM is the 10^8-edge scaling point. It only joins the sweep when
// BMATCH_BENCH_HUGE is set (and never under -short): building it takes tens
// of seconds and several GB, which is trajectory-recording territory, not
// CI smoke territory.
const hugeKernelM = 100_000_000

// kernelScalingGraph builds the m-edge scaling instance. Sizes through 10^7
// use the in-memory generator; the 10^8 point would pay dearly for its
// dedup set, so it exercises the big-instance pipeline end to end instead —
// streaming generation into a BMG1 file, then the two-pass streaming
// ingest that never materializes more than the final CSR.
func kernelScalingGraph(b *testing.B, m int) *graph.Graph {
	n := m / 10
	r := rng.New(15)
	if m < hugeKernelM {
		return graph.Gnm(n, m, r.Split())
	}
	path := filepath.Join(b.TempDir(), "huge.bmg")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	w, err := graphio.NewBinaryWriter(f, n, m, nil, false)
	if err != nil {
		b.Fatal(err)
	}
	if err := graph.GnmStream(n, m, 0, 0, r.Split(), w.Edge); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	g, _, err := graphio.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkKernelScaling is the committed ns/op scaling curve for the
// fused CSR round kernels, swept over kernel, value mode (f64 and the
// half-footprint f32 slab), edge count, and worker-pool width. kernel=round
// is the fused vertex-sum + looseness gather followed by the blocked
// loose-edge filter — dominated by the CSR gather, whose cache-miss cost is
// mode-independent. kernel=init is the blocked initialization — value and
// capacity streams only, which is where halving the value bytes pays and
// where BENCH_BUDGETS.json pins the f32/f64 ns ratio at the large sizes.
// -short (the CI smoke configuration) keeps only the smallest size; the
// full sweep — plus the 10^8-edge point behind BMATCH_BENCH_HUGE — is what
// BENCH_PR<n>.json trajectory points record.
func BenchmarkKernelScaling(b *testing.B) {
	sizes := []int{100_000, 1_000_000, 10_000_000}
	if os.Getenv("BMATCH_BENCH_HUGE") != "" {
		sizes = append(sizes, hugeKernelM)
	}
	for _, m := range sizes {
		if testing.Short() && m > 100_000 {
			continue
		}
		g := kernelScalingGraph(b, m)
		n := g.N
		p := frac.BMatchingProblem(g, graph.UniformBudgets(n, 2))
		w64 := frac.NewView[float64](p)
		q := make([]float64, n)
		x := w64.InitialValues(make([]float64, g.M()), q, g.AvgDeg(), 0)
		y := make([]float64, n)
		vl := make([]bool, n)
		w32 := frac.NewView[float32](p)
		x32 := make([]float32, len(x))
		for i, v := range x {
			x32[i] = float32(v)
		}
		y32 := make([]float32, n)
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("kernel=round/mode=f64/m=%d/workers=%d", m, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					w64.VLoose(vl, y, x, 0.2, workers)
					w64.ELoose(x, 0.2, workers)
				}
			})
			b.Run(fmt.Sprintf("kernel=round/mode=f32/m=%d/workers=%d", m, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					w32.VLoose(vl, y32, x32, 0.2, workers)
					w32.ELoose(x32, 0.2, workers)
				}
			})
			b.Run(fmt.Sprintf("kernel=init/mode=f64/m=%d/workers=%d", m, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					w64.InitialValues(x, q, g.AvgDeg(), workers)
				}
			})
			b.Run(fmt.Sprintf("kernel=init/mode=f32/m=%d/workers=%d", m, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					w32.InitialValues(x32, q, g.AvgDeg(), workers)
				}
			})
		}
	}
}

// BenchmarkFullMPC (E2): the complete O(log log d̄) driver on the
// core+fringe workload where compression has real work to do.
func BenchmarkFullMPC(b *testing.B) {
	for _, coreDeg := range []int{64, 256} {
		nc, nf := 800, 2400
		r := rng.New(2)
		g := graph.CoreFringe(nc, nc*coreDeg/2, nf, nf/2, r.Split())
		p := frac.BMatchingProblem(g, graph.RandomBudgets(g.N, 1, 4, r.Split()))
		for _, workers := range []int{1, 4} {
			params := frac.PracticalParams()
			params.Workers = workers
			b.Run(fmt.Sprintf("coreDeg=%d/m=%d/workers=%d", coreDeg, g.M(), workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := p.FullMPCCtx(context.Background(), params, rng.New(int64(i))); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkConstApprox (E3): the full Theorem 3.1 pipeline
// (FullMPC + rounding + fill).
func BenchmarkConstApprox(b *testing.B) {
	for _, scale := range []struct{ n, m int }{{1000, 8000}, {2000, 32000}} {
		r := rng.New(3)
		g := graph.Gnm(scale.n, scale.m, r.Split())
		bud := graph.RandomBudgets(scale.n, 1, 4, r.Split())
		b.Run(fmt.Sprintf("n=%d/m=%d", scale.n, scale.m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.ConstApproxCtx(context.Background(), g, bud, frac.PracticalParams(), rng.New(int64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOnePlusEpsUnweighted (E4): layered-graph augmentation to
// (1+ε)-optimality.
func BenchmarkOnePlusEpsUnweighted(b *testing.B) {
	for _, eps := range []float64{0.5, 0.25} {
		r := rng.New(4)
		g := graph.Bipartite(100, 100, 1500, r.Split())
		bud := graph.RandomBudgets(200, 1, 3, r.Split())
		b.Run(fmt.Sprintf("eps=%.2f", eps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := augment.OnePlusEpsCtx(context.Background(), g, bud, nil, augment.DefaultParams(eps), rng.New(int64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOnePlusEpsWeighted (E5): the weighted pipeline with conflict
// resolution.
func BenchmarkOnePlusEpsWeighted(b *testing.B) {
	for _, eps := range []float64{0.5, 0.25} {
		r := rng.New(5)
		g := graph.BipartiteWeighted(60, 60, 900, 1, 10, r.Split())
		bud := graph.RandomBudgets(120, 1, 3, r.Split())
		b.Run(fmt.Sprintf("eps=%.2f", eps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := weighted.OnePlusEpsWeightedCtx(context.Background(), g, bud, nil, weighted.DefaultParams(eps), rng.New(int64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDegreeDrop (E6): a single compression step (OneRoundMPC), the
// unit whose repetition gives the log log d̄ round count.
func BenchmarkDegreeDrop(b *testing.B) {
	r := rng.New(6)
	g := graph.CoreFringe(800, 800*200, 2400, 1200, r.Split())
	p := frac.BMatchingProblem(g, graph.RandomBudgets(g.N, 1, 3, r.Split()))
	b.Run(fmt.Sprintf("m=%d", g.M()), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.OneRoundMPCCtx(context.Background(), frac.PracticalParams(), nil, rng.New(int64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMachineLoad (E7): OneRoundMPC across densities — per-op time and
// the reported per-machine load. The workers dimension exercises the
// parallel delivery pipeline: results are identical for every worker
// count, only wall-clock changes.
func BenchmarkMachineLoad(b *testing.B) {
	for _, m := range []int{16000, 64000} {
		n := 1000
		r := rng.New(7)
		g := graph.Gnm(n, m, r.Split())
		p := frac.BMatchingProblem(g, graph.UniformBudgets(n, 2))
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			params := frac.PracticalParams()
			params.Workers = workers
			b.Run(fmt.Sprintf("m=%d/workers=%d", m, workers), func(b *testing.B) {
				maxLoad := 0
				for i := 0; i < b.N; i++ {
					res, err := p.OneRoundMPCCtx(context.Background(), params, nil, rng.New(int64(i)))
					if err != nil {
						b.Fatal(err)
					}
					if res.MaxMachineEdges > maxLoad {
						maxLoad = res.MaxMachineEdges
					}
				}
				b.ReportMetric(float64(maxLoad)/float64(n), "load/n")
			})
		}
	}
}

// BenchmarkStreaming (E8): one-pass greedy vs multi-pass (1+ε) streaming.
func BenchmarkStreaming(b *testing.B) {
	r := rng.New(8)
	g := graph.Gnm(1000, 30000, r.Split())
	bud := graph.RandomBudgets(1000, 1, 3, r.Split())
	b.Run("greedy-1pass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			stream.GreedyOnePass(stream.NewSliceStream(g), g.N, bud)
		}
	})
	b.Run("multipass-eps0.5", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := stream.OnePlusEpsCtx(context.Background(), stream.NewSliceStream(g), g.N, bud,
				stream.Params{Eps: 0.5, MaxSweeps: 4, RetriesPerK: 2, MaxRetries: 4}, rng.New(int64(i)))
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	gw := graph.GnmWeighted(1000, 30000, 1, 10, r.Split())
	b.Run("multipass-weighted-eps0.5", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := stream.OnePlusEpsWeightedCtx(context.Background(), stream.NewSliceStream(gw), gw.N, bud,
				stream.Params{Eps: 0.5, MaxSweeps: 4, RetriesPerK: 2, MaxRetries: 4}, rng.New(int64(i)))
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkConflictResolution (E9): the paper's distributed scheme vs the
// gather-everything baseline on a Σb ≫ n workload.
func BenchmarkConflictResolution(b *testing.B) {
	const leaves = 3000
	g := graph.Star(leaves + 1)
	bud := make(graph.Budgets, leaves+1)
	bud[0] = leaves
	for i := 1; i <= leaves; i++ {
		bud[i] = 1
	}
	m := matching.MustNew(g, bud)
	var cands []weighted.Candidate
	var walks []matching.Walk
	for e := 0; e < g.M(); e++ {
		w := matching.Walk{EdgeIDs: []int32{int32(e)}, Start: int32(e + 1)}
		walks = append(walks, w)
		cands = append(cands, weighted.Candidate{Walk: w, Gain: 1})
	}
	b.Run("mpc-distributed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			weighted.ResolveWithinMPC(cands, m, 16, 0)
		}
	})
	b.Run("gather-baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baseline.GatherConflictResolution(walks, m)
		}
	})
}

// BenchmarkInitAblation (E10): paper initialization vs the unclamped rule.
func BenchmarkInitAblation(b *testing.B) {
	r := rng.New(10)
	g := graph.ChungLu(1500, 15000, 2.2, r.Split())
	p := frac.BMatchingProblem(g, graph.UniformBudgets(g.N, 2))
	for _, noClamp := range []bool{false, true} {
		name := "paper-clamp"
		if noClamp {
			name = "ablated-dv"
		}
		b.Run(name, func(b *testing.B) {
			params := frac.PracticalParams()
			params.InitNoClamp = noClamp
			for i := 0; i < b.N; i++ {
				if _, err := p.OneRoundMPCCtx(context.Background(), params, nil, rng.New(int64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkThresholdAblation (E11): random vs fixed activity thresholds.
func BenchmarkThresholdAblation(b *testing.B) {
	r := rng.New(11)
	g := graph.Gnm(1500, 36000, r.Split())
	p := frac.BMatchingProblem(g, graph.UniformBudgets(g.N, 2))
	b.Run("random-thresholds", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.OneRoundMPCCtx(context.Background(), frac.PracticalParams(), nil, rng.New(int64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fixed-thresholds", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.OneRoundMPCCtx(context.Background(), frac.PracticalParams(), frac.FixedThresholds(p, 0.5), rng.New(int64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCoupling (E12): lockstep coupled execution of the idealized and
// approximate processes with full divergence instrumentation.
func BenchmarkCoupling(b *testing.B) {
	r := rng.New(14)
	g := graph.CoreFringe(500, 500*60, 1000, 500, r.Split())
	p := frac.BMatchingProblem(g, graph.RandomBudgets(g.N, 1, 3, r.Split()))
	b.Run(fmt.Sprintf("m=%d/T=6", g.M()), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			coupling.Run(p, 8, 6, nil, rng.New(int64(i)))
		}
	})
}

// BenchmarkExactComparators: cost of the ground-truth solvers used by the
// quality experiments.
func BenchmarkExactComparators(b *testing.B) {
	r := rng.New(12)
	gb := graph.Bipartite(200, 200, 4000, r.Split())
	budB := graph.RandomBudgets(400, 1, 4, r.Split())
	b.Run("dinic-bipartite", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := exact.MaxBipartite(gb, budB); err != nil {
				b.Fatal(err)
			}
		}
	})
	gw := graph.BipartiteWeighted(60, 60, 1200, 1, 10, r.Split())
	budW := graph.RandomBudgets(120, 1, 3, r.Split())
	b.Run("mcmf-bipartite", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := exact.MaxWeightBipartite(gw, budW); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGreedyBaselines: the 2-approximation baselines.
func BenchmarkGreedyBaselines(b *testing.B) {
	r := rng.New(13)
	g := graph.GnmWeighted(5000, 100000, 1, 10, r.Split())
	bud := graph.RandomBudgets(5000, 1, 4, r.Split())
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baseline.Greedy(g, bud)
		}
	})
	b.Run("greedy-weighted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baseline.GreedyWeightedCtx(context.Background(), g, bud); err != nil {
				b.Fatal(err)
			}
		}
	})
}
