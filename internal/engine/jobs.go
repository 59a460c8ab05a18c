package engine

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Job registry errors; httpapi maps them onto the v2 status codes noted.
var (
	// ErrUnknownJob is returned for job ids that were never submitted or
	// whose retention TTL has expired (404).
	ErrUnknownJob = errors.New("engine: unknown job")
	// ErrJobNotDone is returned by Result while the job is still queued or
	// running (409).
	ErrJobNotDone = errors.New("engine: job not finished")
	// ErrJobFinished is returned by Cancel when the job already reached a
	// terminal state or a cancel was already requested (409).
	ErrJobFinished = errors.New("engine: job already finished or cancel already requested")
	// ErrTooManyJobs is returned by Submit when MaxJobs jobs are resident
	// (429): finished jobs count until their TTL expires.
	ErrTooManyJobs = errors.New("engine: too many jobs")
)

// JobState is a job's lifecycle phase.
type JobState string

const (
	// JobQueued: accepted by the registry, not yet handed to a pool worker.
	JobQueued JobState = "queued"
	// JobRunning: submitted to the pool (waiting for a worker or solving;
	// Progress.Checkpoints > 0 once a worker has actually started).
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
	// JobCanceled: ended by Cancel (or registry shutdown) before
	// completing; the solver aborted at its next checkpoint.
	JobCanceled JobState = "canceled"
)

// terminal reports whether s is a final state (result/error settled, TTL
// ticking).
func (s JobState) terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// JobsConfig sizes the registry. Zero values select the defaults.
type JobsConfig struct {
	// MaxJobs bounds resident jobs — queued, running, and finished ones
	// still inside their retention TTL (default 1024). Submit fails with
	// ErrTooManyJobs beyond it.
	MaxJobs int
	// TTL is how long a finished job's status and result stay retrievable
	// (default 15 minutes). Expired jobs are evicted lazily on access and
	// on every submit.
	TTL time.Duration
}

func (c JobsConfig) withDefaults() JobsConfig {
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.TTL <= 0 {
		c.TTL = 15 * time.Minute
	}
	return c
}

// JobStatus is a point-in-time snapshot of a job.
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	Algo  Algo     `json:"algo"`
	Seed  int64    `json:"seed"`
	// Progress samples the solve's checkpoint odometer (see Progress);
	// Elapsed runs from submission.
	Progress Progress `json:"progress"`
	// Error is set for failed and canceled jobs.
	Error   string    `json:"error,omitempty"`
	Created time.Time `json:"created"`
}

// JobsStats counts what the registry did.
type JobsStats struct {
	Submitted int64 `json:"submitted"`
	Active    int   `json:"active"` // resident: queued + running + retained
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"` // solver errors
	Canceled  int64 `json:"canceled"`
	Expired   int64 `json:"expired"`
}

type jobEntry struct {
	id      string
	algo    Algo
	seed    int64
	created time.Time
	cancel  context.CancelFunc
	prog    *progressCtx

	// Guarded by Jobs.mu.
	state           JobState
	res             *Result
	err             error
	expires         time.Time // zero until terminal
	cancelRequested bool
}

// Jobs is the transport-free async job registry over a Pool: submit
// returns a job id immediately, status samples round/superstep progress
// from the running solve's checkpoint counter, results are retained for a
// TTL after completion, and cancel aborts the solve at its next checkpoint.
// httpapi's /v2/jobs endpoints are a thin wrapper over it. A job is one
// Pool.SubmitWait, the same pool path as a synchronous Pool.Submit, so the
// two return bit-identical results. Safe for concurrent use.
//
// Like the rest of the engine, the registry must stay transport-free (no
// net/http in its dependency cone); TestTransportFree and bmatchvet's
// importhygiene analyzer enforce that.
type Jobs struct {
	cfg  JobsConfig
	pool *Pool

	// root is the parent of every job's context; Close cancels it so
	// shutdown aborts all in-flight jobs at their next checkpoint.
	root       context.Context
	cancelRoot context.CancelFunc

	mu     sync.Mutex
	jobs   map[string]*jobEntry
	closed bool
	wg     sync.WaitGroup

	submitted, doneN, failed, canceled, expired int64
}

// NewJobs returns a registry running jobs on pool. Close the registry
// before closing the pool.
func NewJobs(pool *Pool, cfg JobsConfig) *Jobs {
	root, cancel := context.WithCancel(context.Background())
	return &Jobs{
		cfg:        cfg.withDefaults(),
		pool:       pool,
		root:       root,
		cancelRoot: cancel,
		jobs:       make(map[string]*jobEntry),
	}
}

// newJobID returns a 128-bit random hex id. Ids are capability tokens —
// whoever holds one can poll, fetch, or cancel the job — so they must be
// unguessable, not just unique.
func newJobID() (string, error) {
	var buf [16]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return "", fmt.Errorf("engine: generating job id: %w", err)
	}
	return hex.EncodeToString(buf[:]), nil
}

// Submit registers a job and starts it asynchronously, returning its
// status snapshot (fetch the id from it). The instance must already be
// decoded — admission (body limits, decode slots) stays at the transport
// boundary.
func (j *Jobs) Submit(inst *Instance, spec Spec) (JobStatus, error) {
	if err := spec.Validate(); err != nil {
		return JobStatus{}, err
	}
	id, err := newJobID()
	if err != nil {
		return JobStatus{}, err
	}
	now := time.Now()
	ctx, cancel := context.WithCancel(j.root)
	e := &jobEntry{
		id:      id,
		algo:    spec.Algo,
		seed:    spec.Seed,
		created: now,
		cancel:  cancel,
		prog:    newProgressCtx(ctx),
		state:   JobQueued,
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		cancel()
		return JobStatus{}, ErrClosed
	}
	j.evictLocked(now)
	if len(j.jobs) >= j.cfg.MaxJobs {
		j.mu.Unlock()
		cancel()
		return JobStatus{}, ErrTooManyJobs
	}
	j.jobs[id] = e
	j.submitted++
	j.wg.Add(1)
	st := j.statusLocked(e)
	j.mu.Unlock()
	go j.run(e, inst, spec)
	return st, nil
}

// run executes one job on the pool and settles its terminal state.
func (j *Jobs) run(e *jobEntry, inst *Instance, spec Spec) {
	defer j.wg.Done()
	j.mu.Lock()
	e.state = JobRunning
	j.mu.Unlock()
	res, err := j.pool.SubmitWait(e.prog, inst, spec)
	j.mu.Lock()
	e.res, e.err = res, err
	switch {
	case err == nil:
		e.state = JobDone
		j.doneN++
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		e.state = JobCanceled
		j.canceled++
	default:
		e.state = JobFailed
		j.failed++
	}
	e.expires = time.Now().Add(j.cfg.TTL)
	j.mu.Unlock()
	e.cancel() // the job is settled; release the context immediately
}

// lookupLocked resolves id, evicting it first if its retention expired.
func (j *Jobs) lookupLocked(id string, now time.Time) (*jobEntry, error) {
	e, ok := j.jobs[id]
	if !ok {
		return nil, ErrUnknownJob
	}
	if e.state.terminal() && now.After(e.expires) {
		delete(j.jobs, id)
		j.expired++
		return nil, ErrUnknownJob
	}
	return e, nil
}

// evictLocked sweeps all expired jobs (called on submit, so an idle
// registry holds at most one TTL window of garbage).
func (j *Jobs) evictLocked(now time.Time) {
	for id, e := range j.jobs {
		if e.state.terminal() && now.After(e.expires) {
			delete(j.jobs, id)
			j.expired++
		}
	}
}

func (j *Jobs) statusLocked(e *jobEntry) JobStatus {
	st := JobStatus{
		ID:       e.id,
		State:    e.state,
		Algo:     e.algo,
		Seed:     e.seed,
		Progress: e.prog.sample(),
		Created:  e.created,
	}
	if e.err != nil {
		st.Error = e.err.Error()
	}
	return st
}

// Status returns a snapshot of the job: its state and a live progress
// sample (checkpoints climb while a worker is solving).
func (j *Jobs) Status(id string) (JobStatus, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	e, err := j.lookupLocked(id, time.Now())
	if err != nil {
		return JobStatus{}, err
	}
	return j.statusLocked(e), nil
}

// Result returns the finished job's result. While the job is queued or
// running it fails with ErrJobNotDone; for failed or canceled jobs it
// returns the job's error (context.Canceled for canceled jobs).
func (j *Jobs) Result(id string) (*Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	e, err := j.lookupLocked(id, time.Now())
	if err != nil {
		return nil, err
	}
	if !e.state.terminal() {
		return nil, ErrJobNotDone
	}
	return e.res, e.err
}

// Cancel requests cancellation: the solve aborts at its next checkpoint,
// the job settles as JobCanceled, and nothing is stored in the result
// cache. The first call wins; calling again — or calling on a finished
// job — fails with ErrJobFinished so double-cancels are visible to
// clients instead of silently succeeding.
func (j *Jobs) Cancel(id string) error {
	j.mu.Lock()
	e, err := j.lookupLocked(id, time.Now())
	if err != nil {
		j.mu.Unlock()
		return err
	}
	if e.state.terminal() || e.cancelRequested {
		j.mu.Unlock()
		return ErrJobFinished
	}
	e.cancelRequested = true
	j.mu.Unlock()
	e.cancel()
	return nil
}

// Stats returns a snapshot of the registry counters.
func (j *Jobs) Stats() JobsStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobsStats{
		Submitted: j.submitted,
		Active:    len(j.jobs),
		Done:      j.doneN,
		Failed:    j.failed,
		Canceled:  j.canceled,
		Expired:   j.expired,
	}
}

// Close rejects new submissions, cancels every in-flight job, and waits
// for their workers to settle. Call it before Pool.Close.
func (j *Jobs) Close() {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return
	}
	j.closed = true
	j.mu.Unlock()
	j.cancelRoot()
	j.wg.Wait()
}
