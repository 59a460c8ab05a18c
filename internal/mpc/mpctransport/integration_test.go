package mpctransport

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/frac"
	"repro/internal/graph"
	"repro/internal/mpc"
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

// countingFactory counts the transports a factory hands out.
type countingFactory struct {
	mpc.TransportFactory
	n atomic.Int64
}

func (f *countingFactory) NewTransport(n, workers int) (mpc.Transport, error) {
	f.n.Add(1)
	return f.TransportFactory.NewTransport(n, workers)
}

// TestEngineSolveBitIdenticalAcrossBackends runs the full engine path
// (PoolConfig.MPCTransport, the daemon's configuration surface) for both
// MPC algorithms and compares every result field against a pool that
// delivers in-process.
func TestEngineSolveBitIdenticalAcrossBackends(t *testing.T) {
	r := rng.New(3)
	g := graph.Gnm(150, 2000, r.Split())
	b := graph.UniformBudgets(150, 2)
	addrs, workers := startWorkers(t, 2)
	ctx := context.Background()

	solve := func(cfg engine.PoolConfig, spec engine.Spec) *engine.Result {
		t.Helper()
		p := engine.NewPool(cfg)
		defer p.Close()
		inst, err := engine.NewSession(p.Cache()).InstanceFromGraph(g, b)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Submit(ctx, inst, spec)
		if err != nil {
			t.Fatal(err)
		}
		res.Elapsed = 0
		return res
	}
	for _, algo := range []engine.Algo{engine.AlgoFrac, engine.AlgoApprox} {
		spec := engine.Spec{Algo: algo, Seed: 42, Workers: 2}
		want := solve(engine.PoolConfig{Workers: 1}, spec)
		tcp := &countingFactory{TransportFactory: NewDialer(addrs...)}
		got := solve(engine.PoolConfig{Workers: 1, MPCTransport: tcp}, spec)
		if tcp.n.Load() == 0 {
			t.Errorf("%s: the pool never used its MPC transport", algo)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: result diverged across backends: got %+v, want %+v", algo, got, want)
		}
	}
	waitReleased(t, workers)
}
