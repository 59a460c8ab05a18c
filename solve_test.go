package bmatch

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/baseline"
	"repro/internal/graph"
	"repro/internal/rng"
)

func testGraph(tb testing.TB) (*Graph, Budgets) {
	tb.Helper()
	r := rng.New(31)
	g := graph.GnmWeighted(90, 700, 1, 9, r.Split())
	return g, graph.RandomBudgets(90, 1, 3, r.Split())
}

func sameEdges(tb testing.TB, label string, want, got []int32) {
	tb.Helper()
	if len(want) != len(got) {
		tb.Fatalf("%s: %d edges vs %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			tb.Fatalf("%s: edge %d differs (%d vs %d)", label, i, got[i], want[i])
		}
	}
}

// TestSolveGreedyExposed: the greedy baseline is reachable through the
// unified facade and matches the internal implementation bit for bit.
func TestSolveGreedyExposed(t *testing.T) {
	g, b := testGraph(t)
	want, err := baseline.GreedyWeightedCtx(context.Background(), g, b)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Solve(context.Background(), g, b, Request{Algo: AlgoGreedy})
	if err != nil {
		t.Fatal(err)
	}
	sameEdges(t, "greedy", want.Edges(), rep.M.Edges())
	if rep.Size != want.Size() || rep.Weight != want.Weight() {
		t.Fatalf("greedy summary diverged: %d/%v vs %d/%v", rep.Size, rep.Weight, want.Size(), want.Weight())
	}
}

// TestSessionSolveMatchesOneShot: the session-aware unified path returns
// the same plans as the one-shot path, serves repeats from cache, and
// honors NoCache. An empty Algo resolves to maxw, and a frac Report
// carries Frac instead of M.
func TestSessionSolveMatchesOneShot(t *testing.T) {
	g, b := testGraph(t)
	req := Request{Eps: 0.25, Seed: 11}

	want, err := Solve(context.Background(), g, b, req)
	if err != nil {
		t.Fatal(err)
	}
	if want.Algo != AlgoMaxWeight {
		t.Fatalf("empty Algo resolved to %q", want.Algo)
	}
	s := NewSession()
	first, err := s.Solve(context.Background(), g, b, req)
	if err != nil {
		t.Fatal(err)
	}
	sameEdges(t, "session", want.M.Edges(), first.M.Edges())
	if first.FromCache {
		t.Fatal("first session solve claimed a cache hit")
	}
	second, err := s.Solve(context.Background(), g, b, req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.FromCache {
		t.Fatal("repeat session solve missed the cache")
	}
	sameEdges(t, "session-repeat", want.M.Edges(), second.M.Edges())

	nocache := req
	nocache.NoCache = true
	third, err := s.Solve(context.Background(), g, b, nocache)
	if err != nil {
		t.Fatal(err)
	}
	if third.FromCache {
		t.Fatal("NoCache solve was served from cache")
	}
	sameEdges(t, "session-nocache", want.M.Edges(), third.M.Edges())

	// Frac through the session: certificates identical to one-shot.
	fwant, err := Solve(context.Background(), g, b, Request{Algo: AlgoFrac, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if fwant.Frac == nil || fwant.M != nil {
		t.Fatalf("frac report shape wrong: %+v", fwant)
	}
	fgot, err := s.Solve(context.Background(), g, b, Request{Algo: AlgoFrac, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if fwant.Frac.Value != fgot.Frac.Value || fwant.Frac.DualBound != fgot.Frac.DualBound {
		t.Fatalf("session frac diverged: %+v vs %+v", fgot.Frac, fwant.Frac)
	}
}

// TestSolveWorkersDeterminism: Request.Workers reaches the drivers and
// does not change a single bit of the output.
func TestSolveWorkersDeterminism(t *testing.T) {
	g, b := testGraph(t)
	for _, algo := range []Algo{AlgoApprox, AlgoMax, AlgoMaxWeight} {
		serial, err := Solve(context.Background(), g, b, Request{Algo: algo, Seed: 5})
		if err != nil {
			t.Fatalf("%s serial: %v", algo, err)
		}
		parallel, err := Solve(context.Background(), g, b, Request{Algo: algo, Seed: 5, Workers: 4})
		if err != nil {
			t.Fatalf("%s workers=4: %v", algo, err)
		}
		sameEdges(t, string(algo)+" workers", serial.M.Edges(), parallel.M.Edges())
	}
}

// TestSolveProgress: the Progress callback fires at solver checkpoints
// with a monotone counter, on both the dense and streaming paths.
func TestSolveProgress(t *testing.T) {
	g, b := testGraph(t)
	var calls, last atomic.Int64
	mono := true
	req := Request{Algo: AlgoApprox, Seed: 2, Progress: func(p Progress) {
		calls.Add(1)
		if p.Checkpoints < last.Load() {
			mono = false
		}
		last.Store(p.Checkpoints)
	}}
	if _, err := Solve(context.Background(), g, b, req); err != nil {
		t.Fatal(err)
	}
	if calls.Load() == 0 {
		t.Fatal("progress callback never fired")
	}
	if !mono {
		t.Fatal("progress checkpoints went backwards")
	}

	var streamCalls atomic.Int64
	sreq := Request{Algo: AlgoMax, Eps: 0.5, Seed: 2,
		Progress: func(Progress) { streamCalls.Add(1) }}
	if _, err := SolveStream(context.Background(), NewSliceStream(g), g.N, b, sreq); err != nil {
		t.Fatal(err)
	}
	if streamCalls.Load() == 0 {
		t.Fatal("stream progress callback never fired")
	}
}

// TestSolveValidation: the unified path rejects invalid requests and
// inputs before any work happens.
func TestSolveValidation(t *testing.T) {
	g, b := testGraph(t)
	if _, err := Solve(context.Background(), g, b, Request{Algo: "nope"}); err == nil {
		t.Error("unknown algo accepted")
	}
	if _, err := Solve(context.Background(), g, b, Request{Eps: math.NaN()}); err == nil {
		t.Error("NaN eps accepted")
	}
	if _, err := Solve(context.Background(), g, Budgets{1}, Request{}); err == nil {
		t.Error("short budget vector accepted")
	}
	if _, err := SolveStream(context.Background(), NewSliceStream(g), g.N, Budgets{1}, Request{}); err == nil {
		t.Error("stream short budget vector accepted")
	}
	if _, err := SolveStream(context.Background(), NewSliceStream(g), g.N, b, Request{Algo: AlgoApprox}); err == nil {
		t.Error("stream accepted a non-streaming algo")
	}
}

// TestStreamCtxCancel: SolveStream aborts on an already-cancelled context
// for both streaming algorithms.
func TestStreamCtxCancel(t *testing.T) {
	g, b := testGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, algo := range []Algo{AlgoMax, AlgoMaxWeight} {
		if _, err := SolveStream(ctx, NewSliceStream(g), g.N, b, Request{Algo: algo, Eps: 0.5}); !errors.Is(err, context.Canceled) {
			t.Fatalf("SolveStream %s: %v, want context.Canceled", algo, err)
		}
	}
}
