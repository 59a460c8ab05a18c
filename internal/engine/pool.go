package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/graphio"
	"repro/internal/mpc"
)

// ErrQueueFull is returned by Submit when the bounded request queue is at
// capacity; HTTP maps it to 429 so clients can back off.
var ErrQueueFull = errors.New("engine: request queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("engine: pool closed")

// ErrDecodeBusy is returned by DecodeFrom when all decode slots are taken;
// HTTP maps it to 429. Decoding (body buffering + adjacency building) is
// the most expensive pre-solve stage, so it gets its own admission bound
// rather than running unboundedly on caller goroutines.
var ErrDecodeBusy = errors.New("engine: too many concurrent decodes")

// PoolConfig sizes the worker pool. Zero values select the defaults.
type PoolConfig struct {
	// Workers is the number of solver workers, each owning a Session
	// (default 4).
	Workers int
	// QueueDepth bounds requests admitted but not yet solving (default
	// 4 × Workers). Beyond it, Submit fails fast with ErrQueueFull.
	QueueDepth int
	// BatchMax bounds how many queued requests one worker coalesces
	// back-to-back (default 8). Only requests identical to the one being
	// served — same instance, same spec — are coalesced: the first solve
	// computes, the rest are result-cache hits, so a thundering herd of
	// identical requests occupies one worker instead of the whole pool.
	BatchMax int
	// SolverWorkers is the internal parallelism given to solves whose Spec
	// leaves Workers at 0 (default 1: with many concurrent requests,
	// parallelism should come from the request level, not nested worker
	// pools). A Spec with Workers > 0 keeps its own value — that is how
	// the HTTP workers= param and bmatch.Request.Workers reach the
	// drivers.
	SolverWorkers int
	// MPCTransport is the MPC delivery backend of every solve the pool
	// runs (the daemon's -mpc-workers flag); nil is the in-process
	// pipeline. Backends are bit-identical by contract, so it changes
	// where supersteps run, never what they produce, and neither the
	// result cache nor request coalescing looks at it.
	MPCTransport mpc.TransportFactory
	// DecodeSlots bounds concurrent request decodes (default 2 × Workers).
	DecodeSlots int
	// MaxVertices and MaxEdges bound accepted instances; the formats
	// declare counts up front, so without bounds a handful of tiny
	// hostile payloads could demand multi-gigabyte allocations. 0 selects
	// the defaults (2^24 vertices, 2^25 edges); negative disables the
	// bound.
	MaxVertices int
	MaxEdges    int
	Cache       CacheConfig
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 8
	}
	if c.SolverWorkers <= 0 {
		c.SolverWorkers = 1
	}
	if c.DecodeSlots <= 0 {
		c.DecodeSlots = 2 * c.Workers
	}
	if c.MaxVertices == 0 {
		c.MaxVertices = 1 << 24
	}
	if c.MaxEdges == 0 {
		c.MaxEdges = 1 << 25
	}
	return c
}

// limits converts the config bounds to decoder limits (negative = off).
func (c PoolConfig) limits() graphio.Limits {
	var lim graphio.Limits
	if c.MaxVertices > 0 {
		lim.MaxVertices = c.MaxVertices
	}
	if c.MaxEdges > 0 {
		lim.MaxEdges = c.MaxEdges
	}
	return lim
}

// PoolStats are the pool's observability counters.
type PoolStats struct {
	Workers   int   `json:"workers"`
	QueueLen  int   `json:"queueLen"`
	Submitted int64 `json:"submitted"`
	Rejected  int64 `json:"rejected"`
	// DecodeRejected counts 429s from decode-slot exhaustion, separate
	// from queue-full Rejected: the remedies differ (-decode-slots vs
	// -queue/-workers).
	DecodeRejected int64 `json:"decodeRejected"`
	Completed      int64 `json:"completed"`
	// Canceled counts requests whose context was already dead when a
	// worker picked them up — the caller gave up while the job sat in the
	// queue, so no solve ever started. Each cancellation lands in exactly
	// one of Canceled or SolveCanceled.
	Canceled int64 `json:"canceled"`
	// SolveCanceled counts solves aborted mid-run by context cancellation
	// or deadline: the worker was freed at a solver round boundary instead
	// of running the solve to completion.
	SolveCanceled int64 `json:"solveCanceled"`
	Errors        int64 `json:"errors"`
	Batches       int64 `json:"batches"`
	MaxBatch      int64 `json:"maxBatch"`
}

type job struct {
	ctx  context.Context
	inst *Instance
	spec Spec
	done chan jobDone
}

type jobDone struct {
	res *Result
	err error
}

// Pool runs solves on a fixed set of workers behind a bounded queue. Each
// worker owns a Session; all sessions share one Cache, so any worker can
// serve any instance warm.
type Pool struct {
	cfg       PoolConfig
	cache     *Cache
	queue     chan *job
	decodeSem chan struct{}
	wg        sync.WaitGroup

	mu     sync.Mutex
	closed bool
	// closing is closed by Close before the queue channel is, so blocked
	// SubmitWait senders wake up and bail out instead of sending on a
	// closed channel; sendWG lets Close wait for them to get out of the
	// way first.
	closing chan struct{}
	sendWG  sync.WaitGroup

	submitted      atomic.Int64
	rejected       atomic.Int64
	decodeRejected atomic.Int64
	completed      atomic.Int64
	canceled       atomic.Int64
	solveCanceled  atomic.Int64
	errs           atomic.Int64
	batches        atomic.Int64
	maxBatch       atomic.Int64

	// decodeSessions hands out sessions for request decoding on caller
	// goroutines, separate from the solver workers' own sessions.
	decodeSessions sync.Pool
}

// NewPool starts a pool.
func NewPool(cfg PoolConfig) *Pool {
	cfg = cfg.withDefaults()
	p := &Pool{
		cfg:       cfg,
		cache:     NewCache(cfg.Cache),
		queue:     make(chan *job, cfg.QueueDepth),
		decodeSem: make(chan struct{}, cfg.DecodeSlots),
		closing:   make(chan struct{}),
	}
	p.decodeSessions.New = func() any { return p.newSession() }
	for i := 0; i < cfg.Workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// newSession returns a session over the pool's cache with the pool's
// decode limits and MPC transport.
func (p *Pool) newSession() *Session {
	s := NewSession(p.cache)
	s.limits = p.cfg.limits()
	s.transport = p.cfg.MPCTransport
	return s
}

// Cache returns the pool's shared cache.
func (p *Pool) Cache() *Cache { return p.cache }

// Decode parses a payload into a cached instance using a pooled decode
// session. Safe for concurrent use.
func (p *Pool) Decode(payload []byte) (*Instance, error) {
	s := p.decodeSessions.Get().(*Session)
	defer p.decodeSessions.Put(s)
	return s.Instance(payload)
}

// DecodeFrom reads a request body into a pooled session's reused buffer
// and decodes it, failing fast with ErrDecodeBusy when all decode slots
// are taken. ctx cancellation aborts the body read between chunks, so an
// expired request cannot hold a decode slot for the rest of its body.
// Safe for concurrent use.
func (p *Pool) DecodeFrom(ctx context.Context, r io.Reader, limit int64) (*Instance, error) {
	select {
	case p.decodeSem <- struct{}{}:
	default:
		p.decodeRejected.Add(1)
		return nil, ErrDecodeBusy
	}
	defer func() { <-p.decodeSem }()
	s := p.decodeSessions.Get().(*Session)
	defer p.decodeSessions.Put(s)
	return s.ReadInstance(ctx, r, limit)
}

// Submit enqueues a solve and waits for its result. It fails fast with
// ErrQueueFull when the queue is at capacity and returns ctx's error if the
// caller gives up while queued (the solve itself is then skipped by the
// worker) or while solving (the solver aborts at its next round boundary
// and the worker moves on).
func (p *Pool) Submit(ctx context.Context, inst *Instance, spec Spec) (*Result, error) {
	return p.submit(ctx, inst, spec, false)
}

// SubmitWait is Submit without the fast-fail: when the queue is full it
// blocks until a slot frees, ctx is cancelled, or the pool closes. The job
// registry admits async jobs with it — an accepted job must ride out a
// transient queue burst, not bounce; admission control for jobs is the
// registry's MaxJobs bound, not the queue depth.
func (p *Pool) SubmitWait(ctx context.Context, inst *Instance, spec Spec) (*Result, error) {
	return p.submit(ctx, inst, spec, true)
}

func (p *Pool) submit(ctx context.Context, inst *Instance, spec Spec, wait bool) (*Result, error) {
	if spec.Workers <= 0 {
		// The configured default, not an override: explicit Spec.Workers
		// (the HTTP workers= param, bmatch.Request.Workers) wins.
		spec.Workers = p.cfg.SolverWorkers
	}
	j := &job{ctx: ctx, inst: inst, spec: spec, done: make(chan jobDone, 1)}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	if wait {
		p.sendWG.Add(1) // registered under mu, so Close waits for this send
		p.mu.Unlock()
		select {
		case p.queue <- j:
			p.sendWG.Done()
		case <-ctx.Done():
			p.sendWG.Done()
			return nil, ctx.Err()
		case <-p.closing:
			p.sendWG.Done()
			return nil, ErrClosed
		}
	} else {
		select {
		case p.queue <- j:
			p.mu.Unlock()
		default:
			p.mu.Unlock()
			p.rejected.Add(1)
			return nil, ErrQueueFull
		}
	}
	p.submitted.Add(1)
	select {
	case d := <-j.done:
		return d.res, d.err
	case <-ctx.Done():
		// The caller stops waiting; the worker still processes the job and
		// does the counting (canceled-in-queue vs cancelled mid-solve), so
		// one cancellation is never counted twice.
		return nil, ctx.Err()
	}
}

// Close drains the queue and stops the workers. Queued jobs still complete
// (cancel their contexts first for a fast drain).
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.closing)
	p.mu.Unlock()
	// Blocked SubmitWait senders have either enqueued or are now waking up
	// on closing; once they are all out, no send can race the close below.
	p.sendWG.Wait()
	close(p.queue)
	p.wg.Wait()
}

func (p *Pool) worker() {
	defer p.wg.Done()
	s := p.newSession()
	batch := make([]*job, 0, p.cfg.BatchMax)
	var carry *job
	for {
		var j *job
		if carry != nil {
			j, carry = carry, nil
		} else {
			var ok bool
			j, ok = <-p.queue
			if !ok {
				return
			}
		}
		// Opportunistic bounded coalescing: drain queued requests that
		// are identical to this one (same instance, same spec). The first
		// solve computes, the rest are result-cache hits on this session,
		// so a burst of identical requests occupies one worker and leaves
		// the rest of the pool free for distinct work. The first
		// non-matching job is carried over, bounding head-of-line
		// blocking to a single request.
		batch = append(batch[:0], j)
		if !j.spec.NoCache {
		drain:
			for len(batch) < p.cfg.BatchMax {
				select {
				case jj, ok := <-p.queue:
					if !ok {
						break drain
					}
					if jj.inst != j.inst || jj.spec != j.spec {
						carry = jj
						break drain
					}
					batch = append(batch, jj)
				default:
					break drain
				}
			}
		}
		p.batches.Add(1)
		for {
			cur := p.maxBatch.Load()
			if int64(len(batch)) <= cur || p.maxBatch.CompareAndSwap(cur, int64(len(batch))) {
				break
			}
		}
		for _, jj := range batch {
			p.run(s, jj)
		}
	}
}

// run executes one job with its own context: coalesced jobs share a solve
// only through the result cache, so one caller's cancellation never fails
// another's request.
func (p *Pool) run(s *Session, j *job) {
	if err := j.ctx.Err(); err != nil {
		p.canceled.Add(1)
		j.done <- jobDone{err: err}
		return
	}
	defer func() {
		if r := recover(); r != nil {
			p.errs.Add(1)
			j.done <- jobDone{err: fmt.Errorf("engine: solver panic: %v", r)}
		}
	}()
	res, err := s.Solve(j.ctx, j.inst, j.spec)
	switch {
	case err == nil:
		p.completed.Add(1)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		p.solveCanceled.Add(1)
	default:
		p.errs.Add(1)
	}
	j.done <- jobDone{res: res, err: err}
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Workers:        p.cfg.Workers,
		QueueLen:       len(p.queue),
		Submitted:      p.submitted.Load(),
		Rejected:       p.rejected.Load(),
		DecodeRejected: p.decodeRejected.Load(),
		Completed:      p.completed.Load(),
		Canceled:       p.canceled.Load(),
		SolveCanceled:  p.solveCanceled.Load(),
		Errors:         p.errs.Load(),
		Batches:        p.batches.Load(),
		MaxBatch:       p.maxBatch.Load(),
	}
}
