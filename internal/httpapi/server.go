// Package httpapi is the HTTP/JSON transport over the transport-free
// serving engine (internal/engine): request parsing and validation at the
// wire boundary, the streaming result encoder, the limits/backpressure
// policy (429 on queue or decode-slot exhaustion, 413 on oversized bodies),
// and per-request deadlines (timeout_ms → 504). It holds the only
// net/http dependency of the serving stack; the engine must never grow
// one (see the layering rule in internal/engine's package comment).
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/engine"
)

// Config sizes the HTTP surface. Zero values select the defaults.
type Config struct {
	// MaxBodyBytes bounds accepted request bodies (default 256 MiB).
	MaxBodyBytes int64
	// MaxTimeout caps the per-request deadline clients may set via
	// timeout_ms (default 10 minutes). Longer requests are clamped.
	MaxTimeout time.Duration
	// MaxWorkers caps the per-request workers= parameter (default 64):
	// solver parallelism is a shared-machine resource, so a single client
	// cannot demand an unbounded goroutine fan-out.
	MaxWorkers int
	// MaxJobs bounds resident v2 jobs — queued, running, and finished
	// ones inside their retention TTL (default 1024; see
	// engine.JobsConfig). /v1/solve requests are not jobs and do not
	// count.
	MaxJobs int
	// JobTTL is how long a finished v2 job's status and result stay
	// retrievable (default 15 minutes).
	JobTTL time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 256 << 20
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = 64
	}
	return c
}

// Server is the bmatchd HTTP surface:
//
//	POST /v1/solve?algo=approx|max|maxw|greedy|frac&eps=&seed=&paper=&nocache=&workers=&values=&timeout_ms=
//	     body: instance in graphio text or binary format (sniffed)
//	     response: JSON result; the matched-edge (or x) array is streamed
//	POST   /v2/jobs?algo=...          async submit → 202 + job status
//	GET    /v2/jobs/{id}              status + checkpoint progress
//	GET    /v2/jobs/{id}/result       streamed result once done
//	DELETE /v2/jobs/{id}              cancel (and release) the job
//	GET  /v1/healthz
//	GET  /v1/stats
//
// It owns no solver state of its own: sessions, caches, and admission
// control live in the engine.Pool it wraps, and the async lifecycle in the
// engine.Jobs registry. /v1/solve submits straight to the pool, and a v2
// job is the same pool submission, so both return bit-identical results.
type Server struct {
	cfg      Config
	pool     *engine.Pool
	jobs     *engine.Jobs
	mux      *http.ServeMux
	started  time.Time
	draining atomic.Bool
}

// NewServer wraps pool with the HTTP surface and starts the job registry.
func NewServer(pool *engine.Pool, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		pool:    pool,
		jobs:    engine.NewJobs(pool, engine.JobsConfig{MaxJobs: cfg.MaxJobs, TTL: cfg.JobTTL}),
		mux:     http.NewServeMux(),
		started: time.Now(),
	}
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v2/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v2/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v2/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("DELETE /v2/jobs/{id}", s.handleJobDelete)
	return s
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// SetDraining marks the server as shutting down: in-flight requests whose
// contexts the owner is about to cancel will answer 503 + Retry-After
// (retry against another replica) instead of 408 (client's fault). Call it
// just before cancelling the solve contexts.
func (s *Server) SetDraining() { s.draining.Store(true) }

// Close shuts down the job registry (cancelling in-flight jobs) and then
// the worker pool.
func (s *Server) Close() {
	s.jobs.Close()
	s.pool.Close()
}

type errorBody struct {
	Error string `json:"error"`
}

// writeCancelError maps a context error from a cancelled request to the
// right status: 504 when the client's own timeout_ms deadline expired, 503
// with Retry-After when the daemon is draining (a server event the client
// should retry elsewhere — 4xx would tell retry policies not to), and 408
// when the client itself went away.
func (s *Server) writeCancelError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		// The timeout_ms deadline elapsed before the work finished; the
		// solver aborted at a round boundary and the worker is free again.
		writeError(w, http.StatusGatewayTimeout,
			fmt.Errorf("httpapi: request exceeded the requested deadline: %w", err))
	case s.draining.Load():
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("httpapi: server is shutting down: %w", err))
	default:
		writeError(w, http.StatusRequestTimeout, err)
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Error: err.Error()})
}

// decodeBody decodes the request body into a cached instance under the
// pool's decode admission. On failure it writes the error reply and
// returns nil.
func (s *Server) decodeBody(ctx context.Context, w http.ResponseWriter, body io.Reader) *engine.Instance {
	inst, err := s.pool.DecodeFrom(ctx, body, s.cfg.MaxBodyBytes)
	switch {
	case errors.Is(err, engine.ErrDecodeBusy):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, engine.ErrBodyTooLarge):
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("httpapi: request body exceeds %d bytes", s.cfg.MaxBodyBytes))
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		// The deadline or the client expired while the body was still
		// arriving; same replies as a cancelled solve.
		s.writeCancelError(w, err)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	}
	return inst
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	spec, timeout, err := s.specFromQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// The solve context is the request context (cancelled when the client
	// goes away or the daemon drains), optionally tightened by the
	// client's own deadline. It is derived before decoding so timeout_ms
	// budgets the whole request, not just queue + solve; the engine
	// threads it down to every solver round boundary, so any of the three
	// frees the worker mid-solve.
	ctx := r.Context()
	if timeout > 0 {
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	inst := s.decodeBody(ctx, w, r.Body)
	if inst == nil {
		return
	}
	res, err := s.pool.Submit(ctx, inst, spec)
	switch {
	case errors.Is(err, engine.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, engine.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.writeCancelError(w, err)
		return
	case err != nil:
		// The request was already validated, so what remains (solver
		// panics, internal failures) is the server's fault, not the
		// client's.
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	streamResult(w, res)
}

// specFromQuery parses and validates the solve parameters; validation at
// the request boundary mirrors bmatch.Request.Validate. The second return
// is the client's requested deadline (0 = none).
func (s *Server) specFromQuery(r *http.Request) (engine.Spec, time.Duration, error) {
	q := r.URL.Query()
	spec := engine.Spec{Algo: engine.AlgoMaxWeight}
	var timeout time.Duration
	if a := q.Get("algo"); a != "" {
		spec.Algo = engine.Algo(a)
	}
	if ws := q.Get("workers"); ws != "" {
		v, err := strconv.Atoi(ws)
		if err != nil || v < 0 || v > s.cfg.MaxWorkers {
			return spec, 0, fmt.Errorf("httpapi: bad workers %q (want 0..%d)", ws, s.cfg.MaxWorkers)
		}
		// 0 keeps the pool's configured default (-solver-workers).
		spec.Workers = v
	}
	if e := q.Get("eps"); e != "" {
		v, err := strconv.ParseFloat(e, 64)
		if err != nil {
			return spec, 0, fmt.Errorf("httpapi: bad eps %q", e)
		}
		spec.Eps = v
	}
	if sd := q.Get("seed"); sd != "" {
		v, err := strconv.ParseInt(sd, 10, 64)
		if err != nil {
			return spec, 0, fmt.Errorf("httpapi: bad seed %q", sd)
		}
		spec.Seed = v
	}
	if p := q.Get("paper"); p != "" {
		v, err := strconv.ParseBool(p)
		if err != nil {
			return spec, 0, fmt.Errorf("httpapi: bad paper %q", p)
		}
		spec.PaperConstants = v
	}
	// Value mode rides through as a string; Spec.Validate rejects unknown
	// spellings and f32 with a non-frac algo, exactly like the facade.
	spec.ValueMode = q.Get("values")
	if nc := q.Get("nocache"); nc != "" {
		v, err := strconv.ParseBool(nc)
		if err != nil {
			return spec, 0, fmt.Errorf("httpapi: bad nocache %q", nc)
		}
		spec.NoCache = v
	}
	if tm := q.Get("timeout_ms"); tm != "" {
		v, err := strconv.ParseInt(tm, 10, 64)
		if err != nil || v <= 0 {
			return spec, 0, fmt.Errorf("httpapi: bad timeout_ms %q (want a positive integer)", tm)
		}
		// Saturate instead of multiplying: a huge value must clamp to
		// MaxTimeout in the handler, not overflow Duration to a negative
		// number (which would read as "no deadline").
		if maxMs := int64(math.MaxInt64 / int64(time.Millisecond)); v > maxMs {
			v = maxMs
		}
		timeout = time.Duration(v) * time.Millisecond
	}
	return spec, timeout, spec.Validate()
}

// streamResult writes the result as one JSON object, streaming the large
// arrays (matched edges; for frac, the x vector and cover) in chunks so
// multi-million-edge solutions flow to the client without a response-sized
// buffer.
func streamResult(w http.ResponseWriter, res *engine.Result) {
	w.Header().Set("Content-Type", "application/json")
	flusher, _ := w.(http.Flusher)

	buf := make([]byte, 0, 1<<16)
	ok := true
	// drain flushes buf to the client once it nears the chunk size; after
	// a write error it goes quiet (the client is gone — keep the encoder
	// simple and let the handler return).
	drain := func() {
		if len(buf) < 1<<16-24 {
			return
		}
		if ok {
			if _, err := w.Write(buf); err != nil {
				ok = false
			} else if flusher != nil {
				flusher.Flush()
			}
		}
		buf = buf[:0]
	}
	buf = append(buf, `{"algo":`...)
	buf = appendJSONString(buf, string(res.Algo))
	buf = append(buf, `,"instance":`...)
	buf = appendJSONString(buf, res.Instance)
	buf = append(buf, `,"n":`...)
	buf = strconv.AppendInt(buf, int64(res.N), 10)
	buf = append(buf, `,"m":`...)
	buf = strconv.AppendInt(buf, int64(res.M), 10)
	buf = append(buf, `,"size":`...)
	buf = strconv.AppendInt(buf, int64(res.Size), 10)
	buf = append(buf, `,"weight":`...)
	buf = strconv.AppendFloat(buf, res.Weight, 'g', -1, 64)
	buf = append(buf, `,"feasible":`...)
	buf = strconv.AppendBool(buf, res.Feasible)
	buf = append(buf, `,"cached":`...)
	buf = strconv.AppendBool(buf, res.FromCache)
	if res.Algo == engine.AlgoApprox || res.Algo == engine.AlgoFrac {
		buf = append(buf, `,"cert":{"dualBound":`...)
		buf = strconv.AppendFloat(buf, res.DualBound, 'g', -1, 64)
		buf = append(buf, `,"fracValue":`...)
		buf = strconv.AppendFloat(buf, res.FracValue, 'g', -1, 64)
		buf = append(buf, `},"mpc":{"compressionSteps":`...)
		buf = strconv.AppendInt(buf, int64(res.CompressionSteps), 10)
		buf = append(buf, `,"rounds":`...)
		buf = strconv.AppendInt(buf, int64(res.MPCRounds), 10)
		buf = append(buf, `,"maxMachineEdges":`...)
		buf = strconv.AppendInt(buf, int64(res.MaxMachineEdges), 10)
		buf = append(buf, '}')
	}
	buf = append(buf, `,"elapsedMs":`...)
	buf = strconv.AppendFloat(buf, float64(res.Elapsed)/float64(time.Millisecond), 'g', 6, 64)
	if res.Algo == engine.AlgoFrac {
		buf = append(buf, `,"cover":{"vertices":[`...)
		for i, v := range res.CoverVertices {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, int64(v), 10)
			drain()
		}
		buf = append(buf, `],"slackEdges":[`...)
		for i, e := range res.CoverSlackEdges {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, int64(e), 10)
			drain()
		}
		buf = append(buf, `]},"x":[`...)
		for i, x := range res.X {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendFloat(buf, x, 'g', -1, 64)
			drain()
		}
		buf = append(buf, ']')
	}
	buf = append(buf, `,"edges":[`...)
	for i, e := range res.Edges {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(e), 10)
		drain()
	}
	buf = append(buf, `]}`...)
	buf = append(buf, '\n')
	if ok {
		w.Write(buf)
	}
}

// appendJSONString appends s as a JSON string. Keys here are hex hashes and
// algo names, so plain quoting suffices; anything unusual goes through the
// encoder.
func appendJSONString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if s[i] < 0x20 || s[i] == '"' || s[i] == '\\' || s[i] >= 0x80 {
			enc, _ := json.Marshal(s)
			return append(buf, enc...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// handleHealthz reports liveness plus the lifecycle phase: "ok" while
// serving, "draining" (with a 503 and Retry-After) once shutdown began.
// The distinction lets load balancers and orchestrators stop sending
// requests to a terminating replica before its connections are refused.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	status, code := "ok", http.StatusOK
	if s.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\"status\":%q,\"ok\":%t,\"uptimeSec\":%.0f}\n",
		status, code == http.StatusOK, time.Since(s.started).Seconds())
}

// statsBody is the /v1/stats response.
type statsBody struct {
	Pool  engine.PoolStats  `json:"pool"`
	Cache engine.CacheStats `json:"cache"`
	Jobs  engine.JobsStats  `json:"jobs"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(statsBody{
		Pool:  s.pool.Stats(),
		Cache: s.pool.Cache().Stats(),
		Jobs:  s.jobs.Stats(),
	})
}
