// Package bmatch is a Go implementation of "Massively Parallel Algorithms
// for b-Matching" (Ghaffari, Grunau, Mitrović — SPAA 2022, arXiv
// 2211.07796).
//
// A b-matching generalizes matching: each vertex v has a budget b_v and may
// have up to b_v incident matched edges. This package provides
//
//   - Θ(1)-approximate unweighted b-matching computed by the paper's
//     O(log log d̄)-round MPC algorithm, executed on a faithful MPC
//     simulator with round/memory accounting (Theorem 3.1),
//   - (1+ε)-approximate unweighted b-matching via random layered-graph
//     augmentation (Theorem 4.1),
//   - (1+ε)-approximate maximum weight b-matching via weighted layering
//     with scalable conflict resolution (Theorem 5.1),
//   - semi-streaming variants using Õ(Σb_v) memory (Section 4.6), plus
//   - the fractional LP engine and a greedy baseline.
//
// The unified API is one request type and one call:
//
//	g, _ := bmatch.NewGraph(4, []bmatch.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}})
//	b := bmatch.UniformBudgets(4, 2)
//	rep, err := bmatch.Solve(ctx, g, b, bmatch.Request{Algo: bmatch.AlgoApprox, Seed: 1})
//	// rep.M.Size(), rep.Weight, rep.Stats.DualBound ...
//
// Solve, Session.Solve, and the bmatchd HTTP daemon all dispatch through
// the same engine, so the same (graph, Request) returns bit-identical
// results on every path. SolveStream is the semi-streaming entry point
// (Section 4.6) over an EdgeStream. These three calls are the package's
// only solve entry points; Request.Algo selects the theorem.
//
// All algorithms are deterministic given Request.Seed.
package bmatch

import (
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/stream"
)

// Edge is an undirected weighted edge; W is ignored by the unweighted
// algorithms (use 1).
type Edge = graph.Edge

// Graph is an undirected graph on vertices 0..N-1.
type Graph = graph.Graph

// Budgets is the per-vertex budget vector b.
type Budgets = graph.Budgets

// BMatching is a set of edges respecting all vertex budgets.
type BMatching = matching.BMatching

// Walk is an alternating walk; Apply augments a matching with it.
type Walk = matching.Walk

// NewGraph builds a graph, validating edges (no self-loops, endpoints in
// range, non-negative finite weights).
func NewGraph(n int, edges []Edge) (*Graph, error) { return graph.New(n, edges) }

// UniformBudgets returns b ≡ k.
func UniformBudgets(n, k int) Budgets { return graph.UniformBudgets(n, k) }

// ApproxStats carries the MPC measurements of an AlgoApprox run.
type ApproxStats struct {
	// CompressionSteps is the number of FullMPC while-loop iterations —
	// the paper's O(log log d̄) quantity.
	CompressionSteps int
	// MPCRounds is the total number of simulator communication rounds.
	MPCRounds int
	// MaxMachineEdges is the largest number of edges resident on a single
	// machine (Lemma 3.28's Õ(n) observable).
	MaxMachineEdges int
	// FracValue and DualBound certify the approximation:
	// |M| ≤ OPT ≤ DualBound.
	FracValue float64
	DualBound float64
}

// FractionalResult carries a fractional b-matching solution together with
// its duality certificates. It is the engine's FracSolution — the facade,
// the engine, and the HTTP surface share one fractional contract.
type FractionalResult = engine.FracSolution

// Session is a long-lived solver session for callers that solve many
// instances (or re-solve the same instance with different seeds or ε). It
// reuses encode/decode buffers across calls and keeps an LRU cache of
// decoded instances (keyed by graph content hash) and solve results, so
// repeat solves skip adjacency building and — for identical requests — the
// solve itself. cmd/bmatchd serves every request through sessions like
// this one.
//
// A Session is not safe for concurrent use; create one per goroutine (they
// may share nothing, or use the daemon for shared caching across clients).
type Session struct {
	s *engine.Session
}

// NewSession returns a session with a private instance/result cache.
func NewSession() *Session {
	return &Session{s: engine.NewSession(nil)}
}

func rebuildMatching(g *Graph, b Budgets, edges []int32) (*BMatching, error) {
	m, err := matching.New(g, b)
	if err != nil {
		return nil, err
	}
	for _, e := range edges {
		if err := m.Add(e); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// StreamResult reports a semi-streaming computation: the matched edge ids,
// the number of passes, and the peak retained memory in words.
type StreamResult = stream.Result

// EdgeStream is the streaming input interface; see NewSliceStream.
type EdgeStream = stream.Stream

// NewSliceStream adapts an in-memory graph to the streaming interface.
func NewSliceStream(g *Graph) EdgeStream { return stream.NewSliceStream(g) }
