package bmatch

import (
	"context"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/mpc"
	"repro/internal/rng"
	"repro/internal/stream"
)

// Algo selects a solver. The facade, engine, and HTTP surface share these
// names: the string is exactly what the daemon's algo= parameter accepts.
type Algo = engine.Algo

const (
	// AlgoApprox is the Θ(1)-approximate MPC algorithm (Theorem 3.1); its
	// Report carries Stats with the dual certificate.
	AlgoApprox = engine.AlgoApprox
	// AlgoMax is the (1+ε)-approximate unweighted algorithm (Theorem 4.1).
	AlgoMax = engine.AlgoMax
	// AlgoMaxWeight is the (1+ε)-approximate weighted algorithm
	// (Theorem 5.1).
	AlgoMaxWeight = engine.AlgoMaxWeight
	// AlgoGreedy is the weight-sorted greedy baseline (2-approximate) the
	// engine has always served over HTTP; the unified API makes it
	// reachable for library callers too.
	AlgoGreedy = engine.AlgoGreedy
	// AlgoFrac solves the fractional b-matching LP (Algorithms 1–3) and
	// fills Report.Frac with the solution and its dual certificates.
	AlgoFrac = engine.AlgoFrac
)

// Progress is a point-in-time sample of a running solve; see
// Request.Progress.
type Progress = engine.Progress

// Request is the one solve contract of the unified API: a single struct
// that selects the algorithm and carries every knob the internals support,
// mapping 1:1 onto the engine's Spec so the facade, engine sessions, the
// job registry, and the HTTP API all speak the same type. The zero value
// is usable: maximum-weight solve, seed 0, ε = 0.25, practical constants,
// serial drivers.
type Request struct {
	// Algo selects the solver; empty selects AlgoMaxWeight (the same
	// default as the daemon's /v1/solve).
	Algo Algo
	// Eps is the approximation slack for the (1+ε) algorithms; 0 keeps
	// the default of 0.25.
	Eps float64
	// Seed makes every run reproducible; results are bit-identical per
	// seed across every entry point and transport.
	Seed int64
	// Workers bounds the drivers' internal parallelism (simulator
	// delivery, rounding repeats, augmentation waves, candidate
	// generation). 0 means serial; results are bit-identical across
	// worker counts.
	Workers int
	// PaperConstants selects the paper's exact scalar constants instead
	// of the practical defaults. See DESIGN.md.
	PaperConstants bool
	// NoCache makes session solves bypass the result cache entirely
	// (neither served from it nor stored into it). One-shot Solve calls
	// never touch a cache, so it is a no-op there.
	NoCache bool
	// ValueMode selects the fractional solver's value precision: "" or
	// "f64" (the default) runs the float64 kernels, "f32" opts AlgoFrac
	// into the float32 value-mode kernels (halved hot-vector memory
	// traffic; relative objective error bounded per README "Value modes").
	// f32 results are deterministic across worker counts and MPC
	// transports but are cached separately from f64 results. Rejected for
	// every algorithm other than AlgoFrac.
	ValueMode string
	// MPCTransport selects the MPC simulator's delivery backend for the
	// fractional compression supersteps (the simulator core of AlgoApprox
	// and AlgoFrac). Nil is the in-process pipeline; a non-nil factory
	// (e.g. mpctransport.NewDialer over `bmatchd -mpc-worker` processes)
	// ships those supersteps' messages to external worker processes. The
	// auxiliary MPC-modeled phases of AlgoMax/AlgoMaxWeight (slot
	// assignment, conflict resolution) always run in-process — their
	// payloads are outside the wire codec's closed type set. Backends are
	// bit-identical by contract — like Workers, this changes where the
	// solve runs, never its result. Implementations must be comparable
	// (use a pointer type).
	MPCTransport mpc.TransportFactory
	// Progress, when non-nil, is invoked with a sample at solver
	// checkpoints (round, superstep, sweep, and stream-pass boundaries).
	// It runs synchronously on solver goroutines, so it must be fast;
	// concurrent checkpoints may be coalesced. Progress is not part of
	// the request's identity: two Requests differing only here are the
	// same solve.
	Progress func(Progress)
}

// Validate checks the request without running it. Eps must be zero (keep
// the default of 0.25) or lie in (0, 1); negative, NaN, Inf, and ≥ 1
// values are rejected so they cannot reach the drivers. The ε contract
// lives in engine.ValidateEps, below the transport, shared with the
// bmatchd request boundary.
func (r Request) Validate() error {
	_, err := r.spec()
	return err
}

// spec resolves the request to the engine's comparable Spec (the Progress
// callback travels separately, via the context).
func (r Request) spec() (engine.Spec, error) {
	algo := r.Algo
	if algo == "" {
		algo = AlgoMaxWeight
	}
	spec := engine.Spec{
		Algo:           algo,
		Eps:            r.Eps,
		Seed:           r.Seed,
		Workers:        r.Workers,
		PaperConstants: r.PaperConstants,
		NoCache:        r.NoCache,
		ValueMode:      r.ValueMode,
		MPCTransport:   r.MPCTransport,
	}
	if err := spec.Validate(); err != nil {
		return spec, fmt.Errorf("bmatch: %w", err)
	}
	return spec, nil
}

// withProgress installs the request's Progress callback as the innermost
// context layer, after any caller deadline, so every checkpoint is
// observed.
func (r Request) withProgress(ctx context.Context) context.Context {
	if r.Progress == nil {
		return ctx
	}
	return engine.WithProgress(ctx, r.Progress)
}

// Report is the unified solve outcome. Which fields are set depends on the
// algorithm: integral solves fill M/Size/Weight, AlgoApprox adds Stats,
// AlgoFrac fills Frac instead of M, and stream solves fill Stream
// alongside Size/Weight. FromCache and Elapsed describe how the result was
// produced (FromCache only ever set on Session/daemon paths).
type Report struct {
	// Algo echoes the resolved algorithm (after the empty-means-maxw
	// default).
	Algo Algo
	// M is the integral b-matching (nil for AlgoFrac and stream solves).
	M *BMatching
	// Size and Weight summarize the solution.
	Size   int
	Weight float64
	// Stats carries the MPC measurements and dual certificate
	// (AlgoApprox only).
	Stats *ApproxStats
	// Frac is the fractional LP solution with its certificates (AlgoFrac
	// only).
	Frac *FractionalResult
	// Stream carries the streaming run's passes and peak memory
	// (SolveStream only).
	Stream *StreamResult
	// FromCache reports a session result-cache hit.
	FromCache bool
	// Elapsed is this call's latency (for cache hits: the hit's, not the
	// original solve's).
	Elapsed time.Duration
}

// Solve is the unified one-shot entry point: every algorithm, every knob,
// one call. It dispatches through the same engine path the daemon serves,
// so a Solve here, a Session.Solve, and an HTTP request with the same
// (graph, Request) return bit-identical results. ctx cancellation and
// deadlines are honored at every solver checkpoint; a cancelled solve
// returns ctx's error and nothing partial, so re-running it is always
// safe.
func Solve(ctx context.Context, g *Graph, b Budgets, req Request) (*Report, error) {
	spec, err := req.spec()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	sol, err := engine.Solve(req.withProgress(ctx), g, b, spec)
	if err != nil {
		return nil, err
	}
	rep := &Report{Algo: spec.Algo, Elapsed: time.Since(start)}
	if sol.M != nil {
		rep.M = sol.M
		rep.Size = sol.M.Size()
		rep.Weight = sol.M.Weight()
	}
	if sol.Frac != nil {
		rep.Frac = sol.Frac
	}
	if spec.Algo == AlgoApprox {
		rep.Stats = &ApproxStats{
			CompressionSteps: sol.CompressionSteps,
			MPCRounds:        sol.MPCRounds,
			MaxMachineEdges:  sol.MaxMachineEdges,
			FracValue:        sol.FracValue,
			DualBound:        sol.DualBound,
		}
	}
	return rep, nil
}

// Solve is the session-aware unified entry point: identical output to the
// package-level Solve, but instances and results are cached, so repeat
// solves of the same graph skip adjacency building and repeat identical
// Requests skip the solve itself (Report.FromCache reports the hit).
func (s *Session) Solve(ctx context.Context, g *Graph, b Budgets, req Request) (*Report, error) {
	spec, err := req.spec()
	if err != nil {
		return nil, err
	}
	inst, err := s.s.InstanceFromGraph(g, b)
	if err != nil {
		return nil, err
	}
	res, err := s.s.Solve(req.withProgress(ctx), inst, spec)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Algo:      spec.Algo,
		Size:      res.Size,
		Weight:    res.Weight,
		FromCache: res.FromCache,
		Elapsed:   res.Elapsed,
	}
	if spec.Algo == AlgoFrac {
		rep.Frac = &FractionalResult{
			X:                res.X,
			Value:            res.FracValue,
			DualBound:        res.DualBound,
			CoverVertices:    res.CoverVertices,
			CoverSlackEdges:  res.CoverSlackEdges,
			CompressionSteps: res.CompressionSteps,
			MPCRounds:        res.MPCRounds,
		}
		return rep, nil
	}
	// Rebuild the matching from the cached edge ids; M.Weight() may
	// differ from Report.Weight (the solver's accumulation order) in the
	// last ULP.
	m, err := rebuildMatching(g, b, res.Edges)
	if err != nil {
		return nil, err
	}
	rep.M = m
	if spec.Algo == AlgoApprox {
		rep.Stats = &ApproxStats{
			CompressionSteps: res.CompressionSteps,
			MPCRounds:        res.MPCRounds,
			MaxMachineEdges:  res.MaxMachineEdges,
			FracValue:        res.FracValue,
			DualBound:        res.DualBound,
		}
	}
	return rep, nil
}

// SolveStream is the unified semi-streaming entry point: AlgoMax or
// AlgoMaxWeight (empty selects AlgoMaxWeight) over an edge stream with
// Õ(Σb_v) retained memory. ctx is checked at every stream-pass boundary.
// Request.Workers and NoCache are ignored: the streaming drivers are
// single-pass machines by construction and nothing is cached.
func SolveStream(ctx context.Context, s EdgeStream, n int, b Budgets, req Request) (*Report, error) {
	spec, err := req.spec()
	if err != nil {
		return nil, err
	}
	if len(b) != n {
		return nil, fmt.Errorf("bmatch: budget vector has %d entries for %d vertices", len(b), n)
	}
	params := stream.Params{Eps: engine.EpsOrDefault(spec.Eps)}
	ctx = req.withProgress(ctx)
	start := time.Now()
	var res *StreamResult
	switch spec.Algo {
	case AlgoMax:
		res, err = stream.OnePlusEpsCtx(ctx, s, n, b, params, rng.New(spec.Seed))
	case AlgoMaxWeight:
		res, err = stream.OnePlusEpsWeightedCtx(ctx, s, n, b, params, rng.New(spec.Seed))
	default:
		return nil, fmt.Errorf("bmatch: stream solve supports algo max or maxw, not %q", spec.Algo)
	}
	if err != nil {
		return nil, err
	}
	return &Report{
		Algo:    spec.Algo,
		Size:    res.Size,
		Weight:  res.Weight,
		Stream:  res,
		Elapsed: time.Since(start),
	}, nil
}
