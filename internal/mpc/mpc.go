// Package mpc is a round-synchronous simulator of the Massively Parallel
// Computation model (Section 1.1 of the paper). Algorithms written against
// it execute in supersteps: in each round every machine runs local
// computation in parallel (on a bounded worker pool) and exchanges
// messages; the simulator enforces determinism and accounts rounds,
// per-machine memory, and communication volume.
//
// The observables of the MPC model — round count, local memory S, global
// memory M·S — are exactly what the simulator measures, so the experiment
// tables report real measurements rather than formula evaluations.
//
// End-of-round delivery is owned by a pluggable Transport whose contract
// is the deterministic delivery spec: each machine's inbox arrives in
// (sender, key, seq) total order, with the round's traffic and memory
// accounting folded into Stats. The default backend is the in-process
// sharded pipeline (senders sharded across the worker pool, shard regions
// merged in sender-id order — bit-for-bit identical for every worker
// count); internal/mpc/mpctransport provides a TCP backend that routes the
// same rounds through external worker processes with identical results.
// Inbox and outbox buffers are reused across rounds; only Exchange hands
// delivered messages out, and the slices it returns are owned by the
// caller and stay valid.
//
// Memory accounting is hardened: Machine.Release panics when a machine's
// resident balance would go negative, and Machine.Charge panics on a
// negative amount — either would silently corrupt the MaxMachineWords
// observable the experiment tables report.
package mpc

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/par"
)

// Message is a unit of communication. Words is its size in machine words,
// the unit of the MPC memory bounds.
type Message struct {
	From, To int
	Key      int64 // routing/deterministic-ordering key chosen by the sender
	Payload  any
	Words    int64
	// Seq is the per-sender send sequence number, assigned by Send. It
	// makes the documented delivery order — sender, then key, then send
	// order — an explicit total order instead of an implicit property of
	// stable sorting.
	Seq int64
}

// Stats aggregates the model's observables over a simulation.
type Stats struct {
	Rounds          int   // communication rounds executed
	MaxMachineWords int64 // high-water mark of words resident on any machine
	MaxRoundIO      int64 // max words sent+received by one machine in one round
	TotalTraffic    int64 // total words communicated
}

// Sim is a simulator instance. Create with NewSimWithWorkers or
// NewSimWithTransport; a Sim is not safe for concurrent use by multiple
// top-level algorithms, but machine callbacks within a round run in
// parallel.
type Sim struct {
	n       int
	workers int
	stats   Stats
	ctx     context.Context // optional; checked at every superstep boundary
	err     error           // first observed ctx or transport error; sticky
	inbox   [][]Message     // messages the last superstep delivered

	resident []int64 // per-machine resident words, maintained via Charge/Release

	machines []*Machine // reused across rounds (outboxes reset, not reallocated)

	// transport routes end-of-round traffic (in-process by default).
	// traffic, outView, and sentWords are the reused per-round work order
	// handed to it. empty is the reused all-nil inbox array handed out on
	// aborted supersteps; shared marks that s.inbox currently aliases it,
	// so delivery must not recycle it into the buffer pool.
	transport Transport
	traffic   RoundTraffic
	outView   [][]Message
	sentWords []int64
	empty     [][]Message
	shared    bool
}

// NewSimWithWorkers returns a simulator with n machines whose compute and
// delivery phases run on workers goroutines. workers ≤ 0 selects
// GOMAXPROCS. Results and Stats are identical for every worker count.
func NewSimWithWorkers(n, workers int) *Sim {
	s, err := NewSimWithTransport(n, workers, nil)
	if err != nil {
		panic(err) // unreachable: the in-process backend cannot fail to build
	}
	return s
}

// NewSimWithTransport returns a simulator whose end-of-round delivery runs
// on the backend derived from f; a nil factory selects the in-process
// sharded pipeline. Compute callbacks always run locally on the worker
// pool — only message routing (and its share of the accounting) moves to
// the backend, which is what lets one superstep span multiple processes.
// Results and Stats are bit-identical across backends. The caller owns the
// simulator's lifetime and must Close it to release backend resources.
func NewSimWithTransport(n, workers int, f TransportFactory) (*Sim, error) {
	if n < 1 {
		panic("mpc: need at least one machine")
	}
	workers = par.PoolSize(workers)
	if workers > n {
		workers = n
	}
	var t Transport
	if f == nil {
		t = newInprocTransport(n, workers)
	} else {
		var err error
		t, err = f.NewTransport(n, workers)
		if err != nil {
			return nil, err
		}
	}
	return &Sim{
		n:         n,
		workers:   workers,
		inbox:     make([][]Message, n),
		resident:  make([]int64, n),
		transport: t,
	}, nil
}

// Close releases the transport's resources (network connections for remote
// backends; a no-op for the in-process pipeline). The simulator must not
// be used after Close.
func (s *Sim) Close() error { return s.transport.Close() }

// SetContext attaches ctx to the simulator. Every subsequent Round and
// Exchange checks it at the superstep boundary; once it is cancelled, all
// further supersteps are skipped (no callbacks run, no messages are
// delivered, no rounds are accounted) and Err reports the cause. Algorithms
// driving a Sim with a context must check Err after each superstep and
// abort; the skip guarantees the abort costs at most one partial round of
// wasted work. Cancellation never corrupts determinism: an aborted
// simulation produces no output, and a fresh run with the same seeds is
// bit-identical to one that was never cancelled.
func (s *Sim) SetContext(ctx context.Context) { s.ctx = ctx }

// Err returns the error that stopped the simulation — the attached
// context's error, or a transport failure — or nil. Once set, all further
// supersteps are skipped.
func (s *Sim) Err() error { return s.err }

// Machines returns the number of machines.
func (s *Sim) Machines() int { return s.n }

// Stats returns the accumulated observables.
func (s *Sim) Stats() Stats { return s.stats }

// Machine is the per-machine view passed to round callbacks.
type Machine struct {
	ID  int
	sim *Sim

	sent []Message // outbox, delivered at the end of the round

	sentWords int64
	seq       int64
}

// Send queues a message for delivery at the start of the next round.
func (m *Machine) Send(to int, key int64, payload any, words int64) {
	if to < 0 || to >= m.sim.n {
		panic(fmt.Sprintf("mpc: send to machine %d out of range [0,%d)", to, m.sim.n))
	}
	if words < 0 {
		panic("mpc: negative message size")
	}
	m.sent = append(m.sent, Message{From: m.ID, To: to, Key: key, Payload: payload, Words: words, Seq: m.seq})
	m.sentWords += words
	m.seq++
}

// Charge records words of data becoming resident on this machine (input
// shards, local state). Used for the local-memory high-water experiments.
// Charging a negative amount panics, symmetric with Release: a negative
// charge is a disguised release that would silently deflate the
// MaxMachineWords observable instead of tripping the Release invariant.
func (m *Machine) Charge(words int64) {
	if words < 0 {
		panic(fmt.Sprintf("mpc: machine %d charged negative %d words", m.ID, words))
	}
	m.sim.resident[m.ID] += words
}

// Release records words of resident data being freed. Releasing more than
// is resident panics: a negative balance means the algorithm's memory
// accounting is wrong, and silently clamping would let the bug corrupt the
// MaxMachineWords observable. A negative amount panics for the same
// reason — it is a disguised charge that would dodge the high-water
// update in Round's accounting.
func (m *Machine) Release(words int64) {
	if words < 0 {
		panic(fmt.Sprintf("mpc: machine %d released negative %d words", m.ID, words))
	}
	m.sim.resident[m.ID] -= words
	if m.sim.resident[m.ID] < 0 {
		panic(fmt.Sprintf("mpc: machine %d released %d words with only %d resident",
			m.ID, words, m.sim.resident[m.ID]+words))
	}
}

// Round executes one superstep: fn runs for every machine in parallel, then
// queued messages are handed to the transport for delivery. It returns
// after delivery, with all accounting updated. If a context attached via
// SetContext has been cancelled, the superstep is skipped entirely (see
// SetContext); a transport failure likewise stops the simulation and
// surfaces through Err.
func (s *Sim) Round(fn func(m *Machine)) {
	if s.err != nil {
		return
	}
	if s.ctx != nil {
		if err := s.ctx.Err(); err != nil {
			s.err = err
			return
		}
	}
	if s.machines == nil {
		s.machines = make([]*Machine, s.n)
		for i := range s.machines {
			s.machines[i] = &Machine{ID: i, sim: s}
		}
		s.outView = make([][]Message, s.n)
		s.sentWords = make([]int64, s.n)
	}
	for _, m := range s.machines {
		m.sent = m.sent[:0]
		m.sentWords = 0
		m.seq = 0
	}
	// Machine callbacks are pure CPU work, so a pool wider than the machine
	// has CPUs only adds scheduling overhead (the workers=4 single-CPU
	// delivery regression); results are width-independent by contract.
	w := s.workers
	if gm := runtime.GOMAXPROCS(0); w > gm {
		w = gm
	}
	//lint:parallel machine callbacks write only machine-owned state; delivery order is re-sorted by the transport's total order
	par.ParallelFor(w, s.n, func(i int) { fn(s.machines[i]) })
	if err := s.deliver(); err != nil {
		s.err = err
		s.inbox = s.emptyInbox()
		s.shared = true
		return
	}
	s.stats.Rounds++
}

// deliver assembles the round's traffic and routes it through the
// transport. The work order struct is reused across rounds so the
// transport hand-off itself allocates nothing.
func (s *Sim) deliver() error {
	for i, m := range s.machines {
		s.outView[i] = m.sent
		s.sentWords[i] = m.sentWords
	}
	recycle := s.inbox
	if s.shared {
		// s.inbox aliases the shared empty array; recycling it would let
		// the transport write delivered messages into the array that
		// emptyInbox hands out as permanently empty.
		recycle = nil
	}
	s.traffic = RoundTraffic{
		N:         s.n,
		Ctx:       s.ctx,
		Outbox:    s.outView,
		SentWords: s.sentWords,
		Resident:  s.resident,
		Stats:     &s.stats,
		Recycle:   recycle,
	}
	next, err := s.transport.Deliver(&s.traffic)
	if err != nil {
		return err
	}
	s.inbox = next
	s.shared = false
	return nil
}

// emptyInbox returns the reused all-nil inbox header array handed out on
// aborted supersteps. Sharing one array is safe because every entry is
// permanently nil: callers only ever read it, and it is never recycled
// into the delivery pool (see deliver), so nothing is ever written to it.
func (s *Sim) emptyInbox() [][]Message {
	if s.empty == nil {
		s.empty = make([][]Message, s.n)
	}
	return s.empty
}

// Exchange runs one superstep like Round and additionally returns the
// delivered messages per machine; Round only accounts them. This lets
// multi-step primitives process a round's output without paying an extra
// bookkeeping round. Ownership of the returned slices transfers to the
// caller; the simulator never reuses them.
func (s *Sim) Exchange(fn func(m *Machine)) [][]Message {
	s.Round(fn)
	if s.err != nil {
		// Cancelled before the superstep ran: nothing was delivered. Hand
		// back the reused empty inbox array so callers that process before
		// checking Err see no phantom messages — without a fresh allocation
		// per call, so cancelled driver loops don't churn the heap.
		return s.emptyInbox()
	}
	out := s.inbox
	// The replacement header array is sim-owned and recyclable next round;
	// the stolen one never re-enters the pool because it is no longer
	// s.inbox.
	s.inbox = make([][]Message, s.n)
	return out
}
