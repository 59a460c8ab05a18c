package engine

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Progress is a point-in-time sample of a running solve. Checkpoints counts
// the cancellation checkpoints the solve has passed — every solver driver
// checks its context at round, superstep, sweep, and stream-pass
// boundaries, so the count is a live round/superstep odometer that costs
// one atomic increment per boundary and needed no new plumbing through the
// drivers.
//
// Checkpoint totals are deterministic for a given (instance, Spec) when
// the drivers run on one worker: Workers = 1, or 0 where it resolves to one
// (a pool's default SolverWorkers, or GOMAXPROCS = 1 elsewhere). Parallel
// waves skip per-item checks nondeterministically, so treat the count as a
// rate signal, not an exact replayable quantity.
type Progress struct {
	// Checkpoints is the number of solver round/superstep boundaries
	// passed so far.
	Checkpoints int64 `json:"checkpoints"`
	// Elapsed is the time since the solve (or job) started.
	Elapsed time.Duration `json:"elapsed"`
}

// progressCtx counts solver checkpoint crossings. Every cancellation
// checkpoint in the solve stack calls ctx.Err(), so overriding Err on an
// embedded parent context observes all of them; Done/Deadline/Value
// delegate to the parent, preserving cancellation semantics exactly.
//
// The wrapper must be the innermost context handed to the solver: deriving
// context.WithTimeout *from* it keeps working (the timer ctx consults the
// parent chain), but wrapping must happen after any deadline is attached,
// or Err calls on the derived ctx would bypass the counter.
type progressCtx struct {
	context.Context
	start time.Time
	n     atomic.Int64
	mu    sync.Mutex // serializes fn across parallel solver workers
	fn    func(Progress)
}

func (c *progressCtx) Err() error {
	n := c.n.Add(1)
	if c.fn != nil && c.mu.TryLock() {
		// TryLock: checkpoints fire from parallel rounding/augmentation
		// workers too; a slow callback must never block the solve, so
		// contended samples are dropped rather than queued.
		c.fn(Progress{Checkpoints: n, Elapsed: time.Since(c.start)})
		c.mu.Unlock()
	}
	return c.Context.Err()
}

// sample reads the current progress without advancing it.
func (c *progressCtx) sample() Progress {
	return Progress{Checkpoints: c.n.Load(), Elapsed: time.Since(c.start)}
}

// newProgressCtx wraps parent with a checkpoint counter readable via
// sample(); the job registry polls it to answer status requests.
func newProgressCtx(parent context.Context) *progressCtx {
	return &progressCtx{Context: parent, start: time.Now()}
}

// WithProgress returns a context that invokes fn with a Progress sample at
// every solver checkpoint the derived solve passes. fn is called
// synchronously on solver goroutines and must be fast; concurrent
// checkpoint crossings are coalesced (samples may be dropped, never
// reordered into the past by more than one checkpoint). The bmatch facade
// uses this to implement Request.Progress.
func WithProgress(ctx context.Context, fn func(Progress)) context.Context {
	p := newProgressCtx(ctx)
	p.fn = fn
	return p
}
