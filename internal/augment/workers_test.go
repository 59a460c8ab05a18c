package augment

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/matching"
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

// TestAssignSlotsMPCWorkersMatches: the assignment and stats agree for
// every simulator worker count.
func TestAssignSlotsMPCWorkersMatches(t *testing.T) {
	r := rng.New(11)
	g := graph.Gnm(60, 400, r.Split())
	b := graph.RandomBudgets(60, 1, 3, r.Split())
	m := matching.MustNew(g, b)
	greedyFill(m)
	ref, refStats := AssignSlotsMPC(m, 4, 1)
	got, gotStats := AssignSlotsMPC(m, 4, 4)
	if refStats != gotStats {
		t.Fatalf("stats diverged: %+v vs %+v", gotStats, refStats)
	}
	for e := range ref.SlotU {
		if ref.SlotU[e] != got.SlotU[e] || ref.SlotV[e] != got.SlotV[e] {
			t.Fatalf("slot assignment diverged at edge %d", e)
		}
	}
}

// TestBuildHDegreeGatherMatchesEdgeSweep pins BuildH's fused per-vertex
// degree gather against the old serial edge sweep it replaced (two degree
// arrays, then the max), across block grains and on a skewed instance.
func TestBuildHDegreeGatherMatchesEdgeSweep(t *testing.T) {
	oldGrain := hDegreeGrain
	t.Cleanup(func() { hDegreeGrain = oldGrain })

	r := rng.New(31)
	instances := []*graph.Graph{
		graph.Gnm(60, 400, r.Split()),
		graph.Star(200),
		graph.CoreFringe(20, 150, 100, 60, r.Split()),
	}
	for gi, g := range instances {
		b := graph.RandomBudgets(g.N, 1, 3, r.Split())
		m := matching.MustNew(g, b)
		mstar := matching.MustNew(g, b)
		for e := 0; e < g.M(); e++ {
			if e%2 == 0 && m.CanAdd(int32(e)) {
				_ = m.Add(int32(e))
			}
			if mstar.CanAdd(int32(e)) {
				_ = mstar.Add(int32(e))
			}
		}

		// The retained pre-fusion reference: one sweep over the edge list.
		degM := make([]int32, g.N)
		degS := make([]int32, g.N)
		for e := 0; e < g.M(); e++ {
			if m.Contains(int32(e)) == mstar.Contains(int32(e)) {
				continue
			}
			ed := g.Edges[e]
			if m.Contains(int32(e)) {
				degM[ed.U]++
				degM[ed.V]++
			} else {
				degS[ed.U]++
				degS[ed.V]++
			}
		}

		for _, grain := range []int{1, 7, oldGrain} {
			hDegreeGrain = grain
			h, err := BuildH(m, mstar)
			if err != nil {
				t.Fatal(err)
			}
			for v := 0; v < g.N; v++ {
				want := degM[v]
				if degS[v] > want {
					want = degS[v]
				}
				if h.BPrime[v] != want {
					t.Fatalf("instance %d grain %d: BPrime[%d] = %d, edge-sweep reference %d",
						gi, grain, v, h.BPrime[v], want)
				}
			}
		}
	}
}
