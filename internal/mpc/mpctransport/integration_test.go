package mpctransport

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/frac"
	"repro/internal/graph"
	"repro/internal/rng"
)

// TestFullMPCBitIdenticalAcrossBackends is the flagship acceptance test:
// the full compression loop (Algorithm 3, one fresh simulator per
// iteration) solved in-process and over loopback TCP with 2 and 3 worker
// processes returns bit-identical solutions and identical aggregated
// simulator stats {Rounds, MaxMachineWords, MaxRoundIO, TotalTraffic}.
func TestFullMPCBitIdenticalAcrossBackends(t *testing.T) {
	r := rng.New(11)
	g := graph.Gnm(220, 3600, r.Split())
	b := graph.UniformBudgets(220, 2)
	p := frac.BMatchingProblem(g, b)

	params := frac.PracticalParams()
	params.Workers = 2
	want, err := p.FullMPCCtx(context.Background(), params, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}

	for _, nw := range []int{2, 3} {
		addrs, workers := startWorkers(t, nw)
		tp := params
		tp.Transport = NewDialer(addrs...)
		got, err := p.FullMPCCtx(context.Background(), tp, rng.New(5))
		if err != nil {
			t.Fatalf("%d workers: %v", nw, err)
		}
		if !reflect.DeepEqual(got.X, want.X) {
			t.Errorf("%d workers: solution X diverged", nw)
		}
		if got.Iterations != want.Iterations || got.MPCSteps != want.MPCSteps {
			t.Errorf("%d workers: iterations %d/%d, want %d/%d", nw, got.Iterations, got.MPCSteps, want.Iterations, want.MPCSteps)
		}
		if got.SimStats != want.SimStats {
			t.Errorf("%d workers: SimStats %+v, want %+v", nw, got.SimStats, want.SimStats)
		}
		if got.MaxMachineEdges != want.MaxMachineEdges {
			t.Errorf("%d workers: MaxMachineEdges %d, want %d", nw, got.MaxMachineEdges, want.MaxMachineEdges)
		}
		waitReleased(t, workers)
	}
}

// TestEngineSolveBitIdenticalAcrossBackends runs the full engine path
// (Spec.MPCTransport, the daemon's configuration surface) for both MPC
// algorithms and compares plans against the in-process backend.
func TestEngineSolveBitIdenticalAcrossBackends(t *testing.T) {
	r := rng.New(3)
	g := graph.Gnm(150, 2000, r.Split())
	b := graph.UniformBudgets(150, 2)
	addrs, workers := startWorkers(t, 2)
	ctx := context.Background()

	for _, algo := range []engine.Algo{engine.AlgoFrac, engine.AlgoApprox} {
		spec := engine.Spec{Algo: algo, Seed: 42, Workers: 2}
		want, err := engine.Solve(ctx, g, b, spec)
		if err != nil {
			t.Fatal(err)
		}
		spec.MPCTransport = NewDialer(addrs...)
		got, err := engine.Solve(ctx, g, b, spec)
		if err != nil {
			t.Fatal(err)
		}
		switch algo {
		case engine.AlgoFrac:
			if !reflect.DeepEqual(got.Frac, want.Frac) {
				t.Errorf("%s: fractional solution diverged across backends", algo)
			}
		case engine.AlgoApprox:
			if !reflect.DeepEqual(got.M, want.M) {
				t.Errorf("%s: matching diverged across backends", algo)
			}
			if got.DualBound != want.DualBound || got.FracValue != want.FracValue ||
				got.MPCRounds != want.MPCRounds || got.CompressionSteps != want.CompressionSteps ||
				got.MaxMachineEdges != want.MaxMachineEdges {
				t.Errorf("%s: observables diverged: got %+v, want %+v", algo, got, want)
			}
		}
	}
	waitReleased(t, workers)
}

// TestDialerIsComparableInSpec pins the engine.Spec contract: Specs
// carrying the same *Dialer must compare equal (the pool coalesces
// identical queued requests by ==), and differing dialers must not.
func TestDialerIsComparableInSpec(t *testing.T) {
	d1, d2 := NewDialer("a:1"), NewDialer("a:1")
	s1 := engine.Spec{Algo: engine.AlgoFrac, MPCTransport: d1}
	s2 := engine.Spec{Algo: engine.AlgoFrac, MPCTransport: d1}
	s3 := engine.Spec{Algo: engine.AlgoFrac, MPCTransport: d2}
	if s1 != s2 {
		t.Fatal("identical specs compare unequal")
	}
	if s1 == s3 {
		t.Fatal("distinct dialers compare equal")
	}
}
