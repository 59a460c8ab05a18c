// Package engine is the transport-free serving engine over the solver
// library: the unified Spec/Result solve contract and its direct Solve
// dispatch, long-lived sessions that reuse decode/encode buffers across
// solves, a content-hash instance cache plus a sharded result cache, a
// bounded worker pool with opportunistic request batching and cooperative
// cancellation, and an async job registry (Jobs) with checkpoint-sampled
// progress and TTL-retained results. The bmatch facade's Solve/Session and
// cmd/bmatchd are both built on it.
//
// Layering rule: engine must stay transport-free — it must never import
// net/http (enforced by TestTransportFree and by CI's import-hygiene
// check). The HTTP surface lives in internal/httpapi, which maps engine
// errors to status codes; library-only consumers link engine without
// pulling in any transport.
//
// Cancellation contract: Session.Solve and Pool.Submit take a
// context.Context that is threaded down through every solver driver
// (core → frac.FullMPCCtx/OneRoundMPCCtx, round, augment, weighted) and
// into the MPC simulator, which checks it at every superstep boundary. A cancelled
// solve aborts within one round of work, frees its worker, returns the
// context's error, and stores nothing in the result cache; a re-run with
// the same seed is bit-identical to a solve that was never cancelled.
package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/augment"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/frac"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/matching"
	"repro/internal/mpc"
	"repro/internal/rng"
	"repro/internal/scratch"
	"repro/internal/weighted"
)

// Instance is a decoded, adjacency-indexed problem instance. Instances are
// immutable once built and shared across sessions via the Cache; Key is the
// hex content hash of the canonical binary graphio encoding.
type Instance struct {
	Key string
	G   *graph.Graph
	B   graph.Budgets
}

// Algo selects a solver.
type Algo string

const (
	AlgoApprox    Algo = "approx" // Θ(1)-approximate, with dual certificate
	AlgoMax       Algo = "max"    // (1+ε)-approximate unweighted
	AlgoMaxWeight Algo = "maxw"   // (1+ε)-approximate weighted
	AlgoGreedy    Algo = "greedy" // weight-sorted greedy baseline (2-approximate)
	AlgoFrac      Algo = "frac"   // fractional LP solution with dual certificates
)

// Spec is the single solve contract every entry point speaks: the bmatch
// facade's Request maps onto it 1:1, Session.Solve and the job registry
// consume it directly, and httpapi parses it off the wire. Spec is
// comparable; the pool relies on that to coalesce identical queued
// requests (which is also why the facade's Progress callback travels via
// WithProgress on the context, not in the Spec).
type Spec struct {
	Algo           Algo
	Eps            float64 // 0 keeps the library default of 0.25
	Seed           int64
	PaperConstants bool
	// Workers bounds the solver's internal parallelism. 0 keeps the
	// caller's default (the pool substitutes its configured SolverWorkers,
	// normally 1, so concurrency comes from request-level parallelism).
	// Results are bit-identical across worker counts, so Workers is not
	// part of the result-cache key.
	Workers int
	// NoCache makes the solve bypass the result cache entirely — neither
	// served from it nor stored into it (Cache-Control: no-store
	// semantics), so forced re-solves don't thrash the LRU.
	NoCache bool
	// ValueMode selects the solver's value precision: "" or "f64" (the
	// default) runs the float64 kernels, "f32" opts the fractional solver
	// (AlgoFrac only) into the float32 value-mode kernels, which halve the
	// hot vectors' memory traffic on bandwidth-bound instances. f32 results
	// are deterministic across worker counts and MPC transports, but they
	// are NOT bit-comparable to f64 results, so the mode is part of the
	// result-cache key — an f32 solve never serves from or stores into an
	// f64 cache entry. See README "Value modes" for the error budget.
	ValueMode string
	// MPCTransport selects the MPC simulator's delivery backend for the
	// fractional compression supersteps — the simulator core of approx and
	// frac. Nil is the in-process pipeline; a non-nil factory (e.g. a
	// *mpctransport.Dialer configured by the daemon's -mpc-workers flag)
	// ships those supersteps to external worker processes. The auxiliary
	// MPC-modeled phases (augment's slot assignment under max, weighted's
	// conflict resolution under maxw) always run in-process: their payloads
	// are arbitrary Go structs that the wire codec's closed type set
	// deliberately does not carry, so the factory is not plumbed there.
	// Implementations must be comparable — use a pointer — because the
	// pool coalesces identical Specs by equality. Backends are
	// bit-identical by contract, so like Workers this is not part of the
	// result-cache key.
	MPCTransport mpc.TransportFactory
}

// DefaultEps is the approximation slack used when Eps is left zero.
const DefaultEps = 0.25

// ValidateEps is the single source of the ε contract, shared by
// bmatch.Request, Spec, and the bmatchd request boundary: zero keeps the
// default, (0,1) is accepted, and negative/NaN/Inf/≥1 are rejected — the
// drivers' layer counts k = O(1/ε) and thresholds are undefined for them.
func ValidateEps(eps float64) error {
	if math.IsNaN(eps) || math.IsInf(eps, 0) {
		return fmt.Errorf("eps = %v is not finite", eps)
	}
	if eps < 0 {
		return fmt.Errorf("eps = %v is negative (use 0 for the default)", eps)
	}
	if eps >= 1 {
		return fmt.Errorf("eps = %v out of range; need 0 < ε < 1 (or 0 for the default)", eps)
	}
	return nil
}

// EpsOrDefault resolves a validated Eps field to the effective slack.
func EpsOrDefault(eps float64) float64 {
	if eps > 0 {
		return eps
	}
	return DefaultEps
}

// Validate checks the algorithm name and the ε contract.
func (sp Spec) Validate() error {
	switch sp.Algo {
	case AlgoApprox, AlgoMax, AlgoMaxWeight, AlgoGreedy, AlgoFrac:
	default:
		return fmt.Errorf("engine: unknown algo %q (want approx|max|maxw|greedy|frac)", sp.Algo)
	}
	if err := ValidateEps(sp.Eps); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	vm, err := frac.ParseValueMode(sp.ValueMode)
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	if vm == frac.ValuesF32 && sp.Algo != AlgoFrac {
		return fmt.Errorf("engine: value mode f32 requires algo frac (got %q)", sp.Algo)
	}
	return nil
}

func (sp Spec) eps() float64 { return EpsOrDefault(sp.Eps) }

// values resolves the validated ValueMode spelling ("" means f64).
func (sp Spec) values() frac.ValueMode {
	vm, _ := frac.ParseValueMode(sp.ValueMode)
	return vm
}

// resultKey identifies a solve in the result cache. Everything that can
// change the output is part of the key — including the value mode, so f32
// and f64 solves of the same instance never share an entry.
func (sp Spec) resultKey(instanceKey string) string {
	return fmt.Sprintf("%s|%s|%g|%d|%t|%s", instanceKey, sp.Algo, sp.eps(), sp.Seed, sp.PaperConstants, sp.values())
}

// Result is a completed solve. Results are immutable and may be shared by
// multiple requests via the cache; Edges must not be modified.
type Result struct {
	Algo     Algo
	Instance string // instance content-hash key
	N, M     int
	Size     int
	Weight   float64
	Edges    []int32 // matched edge ids, increasing
	Feasible bool

	// Certificate and MPC observables (AlgoApprox and AlgoFrac).
	DualBound        float64
	FracValue        float64
	CompressionSteps int
	MPCRounds        int
	MaxMachineEdges  int

	// Fractional solution and its recovered vertex-cover dual (AlgoFrac
	// only). Like Edges, these are shared via the cache and must not be
	// modified.
	X               []float64
	CoverVertices   []int32
	CoverSlackEdges []int32

	FromCache bool
	Elapsed   time.Duration
}

// FracSolution is a fractional b-matching LP solution with its duality
// certificates, the output of AlgoFrac. The bmatch facade aliases its
// FractionalResult to this type, so the engine, the facade, and the HTTP
// surface all share one fractional contract.
type FracSolution struct {
	// X is a feasible, 0.05-tight solution of the b-matching LP
	// (x_e ∈ [0,1], Σ_{e∈E(v)} x_e ≤ b_v).
	X []float64
	// Value is Σx_e; by Lemma 3.3, Value ≥ OPT/60 and OPT ≤ DualBound.
	Value     float64
	DualBound float64
	// CoverVertices and CoverSlackEdges form the O(1)-approximate weighted
	// vertex cover recovered from the dual (the paper's GJN20 connection):
	// every edge has an endpoint in CoverVertices or appears in
	// CoverSlackEdges.
	CoverVertices   []int32
	CoverSlackEdges []int32
	// CompressionSteps and MPCRounds are the simulator measurements.
	CompressionSteps int
	MPCRounds        int
}

// Solved is the output of one direct Solve call: the matching (or
// fractional solution) itself plus the certificate and MPC observables.
// Session converts it to the cacheable wire-level Result; the bmatch
// facade converts it to a Report.
type Solved struct {
	// M is the integral matching (nil for AlgoFrac).
	M *matching.BMatching
	// Frac is the fractional solution (AlgoFrac only).
	Frac *FracSolution

	// Certificate and MPC observables (AlgoApprox only; AlgoFrac carries
	// its own inside Frac).
	DualBound        float64
	FracValue        float64
	CompressionSteps int
	MPCRounds        int
	MaxMachineEdges  int
}

// SessionStats counts what a session did.
type SessionStats struct {
	Decodes    int64 `json:"decodes"`
	Solves     int64 `json:"solves"`
	ResultHits int64 `json:"resultHits"`
}

// Session is a long-lived solver session: it owns reusable decode/encode
// buffers and consults the shared cache for instances and results, so
// serving many requests does not re-pay per-request setup allocations. A
// Session is not safe for concurrent use; the Pool gives each worker its
// own.
type Session struct {
	cache *Cache
	body  []byte // request-body scratch, grown once and reused
	enc   []byte // canonical-encoding scratch, grown once and reused
	stats SessionStats

	// arena is the session's solver scratch arena, threaded into the
	// drivers' round-local buffers so repeat solves through one session
	// (one pool worker) reuse the same slabs instead of re-allocating
	// every round. Created lazily on the first solve; like the session
	// itself, it is single-goroutine.
	arena *scratch.Arena

	// Limits bounds what Instance/ReadInstance will decode. The zero value
	// is unlimited (fine in-process); the Pool sets it for network input.
	Limits graphio.Limits

	// Identity memo for InstanceFromGraph: repeat solves of the same
	// in-memory graph (the facade Session's main workload) skip the O(m)
	// canonical encode + hash entirely. Sound because instances already
	// assume the caller does not mutate g or b after handing them over.
	lastG    *graph.Graph
	lastB    graph.Budgets
	lastInst *Instance
}

// NewSession returns a session backed by cache (nil for a private,
// default-sized cache).
func NewSession(cache *Cache) *Session {
	if cache == nil {
		cache = NewCache(CacheConfig{})
	}
	return &Session{cache: cache}
}

// Stats returns the session's counters.
func (s *Session) Stats() SessionStats { return s.stats }

// ErrBodyTooLarge is returned by ReadInstance when the body exceeds the
// caller's limit; HTTP maps it to 413.
var ErrBodyTooLarge = errors.New("engine: request body too large")

// maxRetainedScratch bounds the body/enc buffers a session keeps between
// requests. Reuse is what makes kilobyte-scale traffic allocation-free;
// one near-MaxBodyBytes request must not leave hundreds of megabytes
// pinned in every pooled session afterwards.
const maxRetainedScratch = 16 << 20

func (s *Session) shrinkScratch() {
	if cap(s.body) > maxRetainedScratch {
		s.body = nil
	}
	if cap(s.enc) > maxRetainedScratch {
		s.enc = nil
	}
}

// ReadInstance decodes an instance from r (text or binary graphio format),
// reading the body into the session's reused buffer so repeated requests
// through one session do not re-allocate it. limit > 0 bounds the accepted
// body size. ctx is checked between reads, so a client whose deadline has
// already expired cannot keep trickling a body and hold a decode slot.
func (s *Session) ReadInstance(ctx context.Context, r io.Reader, limit int64) (*Instance, error) {
	defer s.shrinkScratch()
	if limit > 0 {
		r = io.LimitReader(r, limit+1)
	}
	buf := s.body[:0]
	for {
		if err := ctx.Err(); err != nil {
			s.body = buf
			return nil, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)] // grow via append's amortized policy
		}
		k, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+k]
		if err == io.EOF {
			break
		}
		if err != nil {
			s.body = buf
			return nil, err
		}
	}
	s.body = buf
	if limit > 0 && int64(len(buf)) > limit {
		return nil, ErrBodyTooLarge
	}
	return s.Instance(buf)
}

// Instance decodes payload (text or binary graphio format) into a cached
// instance. Re-posts of a previously seen payload hit the alias table and
// skip parsing entirely; new payloads that decode to a known graph share
// the resident instance.
func (s *Session) Instance(payload []byte) (*Instance, error) {
	defer s.shrinkScratch()
	pk := payloadKey(payload)
	if inst, ok := s.cache.lookupPayload(pk); ok {
		return inst, nil
	}
	g, b, err := graphio.DecodeAnyLimits(payload, s.Limits)
	if err != nil {
		return nil, err
	}
	s.stats.Decodes++
	s.enc = graphio.AppendBinaryTo(s.enc[:0], g, b)
	return s.internInstance(pk, sha256.Sum256(s.enc), g, b), nil
}

// InstanceFromGraph interns an in-memory graph, so facade sessions get the
// same instance/result reuse as wire-format clients. The canonical
// encoding is built and hashed exactly once.
func (s *Session) InstanceFromGraph(g *graph.Graph, b graph.Budgets) (*Instance, error) {
	if g == s.lastG && sameBudgets(b, s.lastB) {
		return s.lastInst, nil
	}
	defer s.shrinkScratch()
	if err := b.Validate(g); err != nil {
		return nil, err
	}
	s.enc = graphio.AppendBinaryTo(s.enc[:0], g, b)
	sum := sha256.Sum256(s.enc)
	inst, ok := s.cache.lookupPayload(string(sum[:]))
	if !ok {
		s.stats.Decodes++
		inst = s.internInstance(string(sum[:]), sum, g, b)
	}
	s.lastG, s.lastB, s.lastInst = g, b, inst
	return inst, nil
}

// sameBudgets reports slice identity (same backing array and length), not
// equality — the memo must only hit when the caller passed the very same
// vector again.
func sameBudgets(a, b graph.Budgets) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

// internInstance stores a decoded graph under its canonical digest and
// links both the raw-payload alias and the canonical-bytes alias to it, so
// a later post of either byte form is a pure alias hit.
func (s *Session) internInstance(payloadKey string, canonical [32]byte, g *graph.Graph, b graph.Budgets) *Instance {
	inst := &Instance{Key: hex.EncodeToString(canonical[:]), G: g, B: b}
	inst = s.cache.storeInstance(payloadKey, inst)
	if ck := string(canonical[:]); ck != payloadKey {
		s.cache.addAlias(ck, inst.Key)
	}
	return inst
}

// payloadKey is the alias-table key for raw payload bytes: the bare digest,
// skipping hex so the hot lookup path allocates one small string at most.
func payloadKey(data []byte) string {
	sum := sha256.Sum256(data)
	return string(sum[:])
}

// Solve runs spec against inst, consulting the result cache first. ctx
// cancellation and deadlines are honored at solver round boundaries (see
// the package comment for the contract); a cancelled solve returns ctx's
// error and leaves the result cache untouched.
func (s *Session) Solve(ctx context.Context, inst *Instance, spec Spec) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	if !spec.NoCache {
		if res, ok := s.cache.lookupResult(spec.resultKey(inst.Key)); ok {
			s.stats.ResultHits++
			hit := *res
			hit.FromCache = true
			// Report this request's latency, not the original solve's.
			hit.Elapsed = time.Since(start)
			return &hit, nil
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.arena == nil {
		s.arena = new(scratch.Arena)
	}
	sol, err := solveScratch(ctx, inst.G, inst.B, spec, s.arena)
	if s.arena.Oversized() {
		// Same retention policy as shrinkScratch and scratch.Put: one
		// giant solve must not pin its peak slab footprint in this worker
		// (times every pooled session) for the daemon's lifetime.
		s.arena = nil
	}
	if err != nil {
		return nil, err
	}
	s.stats.Solves++
	res := resultFromSolved(spec, sol)
	res.Instance = inst.Key
	res.N, res.M = inst.G.N, inst.G.M()
	res.Elapsed = time.Since(start)
	if !spec.NoCache {
		s.cache.storeResult(spec.resultKey(inst.Key), res)
	}
	return res, nil
}

// resultFromSolved flattens a direct solve into the cacheable, shareable
// wire-level Result.
func resultFromSolved(spec Spec, sol *Solved) *Result {
	res := &Result{
		Algo:             spec.Algo,
		DualBound:        sol.DualBound,
		FracValue:        sol.FracValue,
		CompressionSteps: sol.CompressionSteps,
		MPCRounds:        sol.MPCRounds,
		MaxMachineEdges:  sol.MaxMachineEdges,
		Feasible:         true,
	}
	if sol.Frac != nil {
		res.X = sol.Frac.X
		res.FracValue = sol.Frac.Value
		res.DualBound = sol.Frac.DualBound
		res.CoverVertices = sol.Frac.CoverVertices
		res.CoverSlackEdges = sol.Frac.CoverSlackEdges
		res.CompressionSteps = sol.Frac.CompressionSteps
		res.MPCRounds = sol.Frac.MPCRounds
	}
	if sol.M != nil {
		res.Size = sol.M.Size()
		res.Weight = sol.M.Weight()
		res.Edges = sol.M.Edges()
	}
	return res
}

// Solve runs spec directly against (g, b): no session, no cache, no pool.
// It is the single solver dispatch every path shares — Session.Solve (and
// therefore the pool, the job registry, and httpapi) and the bmatch
// facade's one-shot entry points all funnel through it, which is what
// makes the unified API's "same request, same bits, any transport"
// guarantee hold by construction. ctx follows the package cancellation
// contract; wrap it with WithProgress to observe checkpoints.
func Solve(ctx context.Context, g *graph.Graph, b graph.Budgets, spec Spec) (*Solved, error) {
	return solveScratch(ctx, g, b, spec, nil)
}

// solveScratch is Solve with an optional caller-owned scratch arena (a
// Session passes its own so round-local solver buffers are reused across
// solves; nil lets the drivers borrow pooled arenas). The arena never
// changes results — a cancelled or failed solve releases its borrows via
// the drivers' deferred checkpoints, leaving the arena clean for the next
// solve.
func solveScratch(ctx context.Context, g *graph.Graph, b graph.Budgets, spec Spec, ar *scratch.Arena) (*Solved, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := b.Validate(g); err != nil {
		return nil, err
	}
	params := frac.PracticalParams()
	if spec.PaperConstants {
		params = frac.PaperParams()
	}
	params.Workers = spec.Workers
	params.Scratch = ar
	params.Transport = spec.MPCTransport
	params.Values = spec.values() // Validate restricts f32 to AlgoFrac

	sol := &Solved{}
	switch spec.Algo {
	case AlgoApprox:
		out, err := core.ConstApproxCtx(ctx, g, b, params, rng.New(spec.Seed))
		if err != nil {
			return nil, err
		}
		sol.M = out.M
		sol.DualBound = out.DualBound
		sol.FracValue = out.FracValue
		sol.CompressionSteps = out.Frac.Iterations
		sol.MPCRounds = out.Frac.TotalSimRounds
		sol.MaxMachineEdges = out.Frac.MaxMachineEdges
	case AlgoMax:
		ap := augmentDefaults(spec.eps(), spec.Workers)
		out, err := core.OnePlusEpsUnweightedCtx(ctx, g, b, spec.eps(), params, ap, rng.New(spec.Seed))
		if err != nil {
			return nil, err
		}
		sol.M = out.M
	case AlgoMaxWeight:
		wp := weightedDefaults(spec.eps(), spec.Workers)
		out, err := core.OnePlusEpsWeightedCtx(ctx, g, b, spec.eps(), wp, rng.New(spec.Seed))
		if err != nil {
			return nil, err
		}
		sol.M = out.M
	case AlgoGreedy:
		m, err := baseline.GreedyWeightedCtx(ctx, g, b)
		if err != nil {
			return nil, err
		}
		sol.M = m
	case AlgoFrac:
		p := frac.BMatchingProblem(g, b)
		full, err := p.FullMPCCtx(ctx, params, rng.New(spec.Seed))
		if err != nil {
			return nil, err
		}
		// Same guard as the integral algos' Validate below: an infeasible
		// LP solution is an internal bug that must fail the request, not
		// be served (and cached, and replayed) as a 200. The f32 mode gets
		// the float32 tolerance: per-edge values are clamped to capacity,
		// but a vertex's sum of rounded values can exceed b_v by
		// ~2^-23·Σx_e, which is noise, not infeasibility.
		tol := 1e-9
		if params.Values == frac.ValuesF32 {
			tol = 1e-6
		}
		if err := p.CheckFeasibleTol(full.X, tol); err != nil {
			return nil, fmt.Errorf("engine: internal: frac solver produced an infeasible solution: %w", err)
		}
		covV, covE := p.VertexCover(full.X, 0.05)
		sol.Frac = &FracSolution{
			X:                full.X,
			Value:            frac.Value(full.X),
			DualBound:        p.DualBound(full.X, 0.05),
			CoverVertices:    covV,
			CoverSlackEdges:  covE,
			CompressionSteps: full.Iterations,
			MPCRounds:        full.TotalSimRounds,
		}
		return sol, nil
	default:
		return nil, fmt.Errorf("engine: unknown algo %q", spec.Algo)
	}
	// A solver emitting an infeasible matching is an internal bug; failing
	// the request keeps it out of the shared result cache and lets HTTP
	// report 500 instead of serving (and replaying) a bad plan with 200.
	if err := sol.M.Validate(); err != nil {
		return nil, fmt.Errorf("engine: internal: %s solver produced an infeasible matching: %w", spec.Algo, err)
	}
	return sol, nil
}

func augmentDefaults(eps float64, workers int) augment.Params {
	p := augment.DefaultParams(eps)
	p.Workers = workers
	return p
}

func weightedDefaults(eps float64, workers int) weighted.Params {
	p := weighted.DefaultParams(eps)
	p.Workers = workers
	return p
}
