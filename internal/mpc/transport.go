package mpc

import (
	"cmp"
	"context"
	"runtime"
	"slices"

	"repro/internal/par"
)

// Transport routes one superstep's messages. Its contract is the
// simulator's deterministic delivery spec, which doubles as the wire spec
// for networked backends:
//
//   - Given every machine's outbox for a round (RoundTraffic.Outbox, in
//     send order per machine), Deliver returns each machine's inbox for
//     the next round sorted by the (sender, key, seq) total order. Because
//     the order is total, every backend produces bit-identical inboxes.
//   - Deliver owns the round's accounting: it folds the delivered words
//     into RoundTraffic.Stats — TotalTraffic accumulates all delivered
//     words; MaxRoundIO is raised to max_d(SentWords[d] + received_d);
//     MaxMachineWords is raised to max_d(Resident[d] + received_d). The
//     Sim itself only counts Rounds.
//   - A Deliver error aborts the simulation: the Sim records it (Err) and
//     skips all remaining supersteps, exactly like context cancellation.
//     When RoundTraffic.Ctx is cancelled mid-delivery, Deliver must tear
//     down promptly and return the context's error.
//
// Backends: the in-process sharded pipeline (the default, see
// NewSimWithWorkers) and the TCP backend in internal/mpc/mpctransport,
// which ships rounds to external worker processes over length-prefixed
// frames. Plans and Stats are bit-identical across backends by contract.
type Transport interface {
	// Deliver routes tr.Outbox into per-destination inboxes in
	// (sender, key, seq) order and folds the round's accounting into
	// tr.Stats. The returned header array and its buffers are owned by the
	// transport until the Sim hands them back via the next round's
	// tr.Recycle (or never, for slices stolen by Exchange).
	Deliver(tr *RoundTraffic) ([][]Message, error)
	// Close releases backend resources (network connections, pooled
	// buffers). The Sim calls it exactly once, via Sim.Close.
	Close() error
}

// TransportFactory derives a per-simulation Transport. Algorithms create
// one simulator per phase with a phase-dependent machine count, so backend
// selection travels as a factory (e.g. frac.MPCParams.Transport): the
// factory holds the long-lived configuration (worker addresses, limits)
// and NewTransport binds it to one cluster size.
type TransportFactory interface {
	NewTransport(n, workers int) (Transport, error)
}

// RoundTraffic is one round's delivery work order, assembled by the Sim
// and consumed by a Transport. All slices are indexed by machine id and
// remain owned by the Sim; Deliver must not retain them past its return.
type RoundTraffic struct {
	// N is the cluster size.
	N int
	// Ctx, when non-nil, is the simulation's context. Networked backends
	// tear down their connections when it is cancelled mid-delivery; the
	// in-process backend ignores it (delivery is non-blocking).
	Ctx context.Context
	// Outbox[i] holds machine i's sent messages in send order.
	Outbox [][]Message
	// SentWords[i] is the total words machine i sent this round.
	SentWords []int64
	// Resident[i] is the words currently resident on machine i.
	Resident []int64
	// Stats is the accounting destination (see the Transport contract).
	Stats *Stats
	// Recycle carries the previous round's consumed inbox (header array
	// and buffers) back to the transport for reuse. Nil when the previous
	// inbox was handed to the caller (Exchange) or on the first round.
	Recycle [][]Message
}

// compareMessages is the delivery total order: sender, then key, then send
// sequence. Every backend sorts inboxes with it; Seq makes it total, so
// the sorted order is unique and backend-independent.
func compareMessages(a, b Message) int {
	if c := cmp.Compare(a.From, b.From); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	return cmp.Compare(a.Seq, b.Seq)
}

// SortInbox sorts one destination's messages into the documented
// (sender, key, seq) delivery order. Exported for transport backends;
// determinism tests pin that every backend agrees with it.
func SortInbox(box []Message) {
	slices.SortFunc(box, compareMessages)
}

// inprocTransport is the default backend: the sharded in-process pipeline.
// Senders are sharded across the worker pool, each worker buckets its
// shard's outboxes per destination, shard regions are concatenated in
// sender-id order, and per-destination sorts finish the total order.
// Inbox buffers are pooled and reused across rounds via Recycle.
type inprocTransport struct {
	n       int
	workers int
	shards  []deliverShard // per-worker bucketing state, reused across rounds
	spare   [][]Message    // recycled inbox header array for the next delivery
	free    [][]Message    // pooled zero-length message buffers
}

// deliverShard is one worker's view of the delivery pipeline: the counts,
// received words, and write cursors for the messages sent by its
// contiguous range of sender ids.
type deliverShard struct {
	lo, hi int     // sender range [lo, hi)
	count  []int   // per-destination message count from this range
	words  []int64 // per-destination received words from this range
	cursor []int   // per-destination write index into the merged inbox
}

func newInprocTransport(n, workers int) *inprocTransport {
	return &inprocTransport{n: n, workers: workers}
}

func (t *inprocTransport) Close() error { return nil }

// deliverShardGrain is the messages-per-shard target of the traffic-based
// shard sizing: a shard only exists once there is about this much bucketing
// work to give it, since every shard adds O(n) count/merge state per round.
const deliverShardGrain = 1 << 12

// Deliver routes every outbox to its destination inbox. The pipeline is
// parallel but bit-for-bit deterministic: each worker owns a contiguous
// ascending range of sender ids, per-destination shard regions are
// concatenated in shard (= sender) order, and the final per-destination
// sort is by the (sender, key, seq) total order — so shard count and
// boundaries are free to adapt to the round's traffic without changing a
// single delivered byte.
func (t *inprocTransport) Deliver(tr *RoundTraffic) ([][]Message, error) {
	n := t.n
	// Shard count: the requested width, capped at GOMAXPROCS (extra shards
	// on an oversubscribed machine add O(n) merge state with no CPU to run
	// them — the cause of the workers=4 delivery regression on small
	// machines) and at the round's traffic (a near-empty round runs serial).
	total := 0
	for sender := 0; sender < n; sender++ {
		total += len(tr.Outbox[sender])
	}
	w := t.workers
	if gm := runtime.GOMAXPROCS(0); w > gm {
		w = gm
	}
	if byTraffic := total/deliverShardGrain + 1; w > byTraffic {
		w = byTraffic
	}
	if w < 1 {
		w = 1
	}
	if len(t.shards) < w {
		t.shards = make([]deliverShard, w)
		for i := range t.shards {
			t.shards[i] = deliverShard{
				count:  make([]int, n),
				words:  make([]int64, n),
				cursor: make([]int, n),
			}
		}
	}
	shards := t.shards[:w]

	// Traffic-balanced sender ranges: cut where the cumulative message
	// count crosses the per-shard target, so a few chatty senders don't
	// serialize the bucketing passes behind one shard.
	target := (total + w - 1) / w
	si, lo, acc := 0, 0, 0
	for sender := 0; sender < n && si < w-1; sender++ {
		acc += len(tr.Outbox[sender])
		if acc >= target && sender+1 < n {
			shards[si].lo, shards[si].hi = lo, sender+1
			si++
			lo = sender + 1
			acc = 0
		}
	}
	shards[si].lo, shards[si].hi = lo, n
	for si++; si < w; si++ {
		shards[si].lo, shards[si].hi = n, n
	}

	// Pass 1 (parallel): per-shard destination counts and word totals.
	//lint:parallel each shard writes only its own count/words arrays over its own sender range
	par.ParallelFor(w, w, func(wi int) {
		sh := &shards[wi]
		for d := 0; d < n; d++ {
			sh.count[d] = 0
			sh.words[d] = 0
		}
		for sender := sh.lo; sender < sh.hi; sender++ {
			for i := range tr.Outbox[sender] {
				msg := &tr.Outbox[sender][i]
				sh.count[msg.To]++
				sh.words[msg.To] += msg.Words
			}
		}
	})

	// Merge (serial, O(workers·n)): size each destination's inbox exactly,
	// hand every shard its write region, and fold the round's accounting
	// (traffic, per-machine IO, resident high-water) into the same scan —
	// there is no separate accounting pass.
	next := t.spare
	if next == nil {
		next = make([][]Message, n)
	}
	t.spare = nil
	for d := 0; d < n; d++ {
		total := 0
		var rw int64
		for wi := range shards {
			shards[wi].cursor[d] = total
			total += shards[wi].count[d]
			rw += shards[wi].words[d]
		}
		next[d] = t.grab(total)
		tr.Stats.TotalTraffic += rw
		if io := tr.SentWords[d] + rw; io > tr.Stats.MaxRoundIO {
			tr.Stats.MaxRoundIO = io
		}
		if res := tr.Resident[d] + rw; res > tr.Stats.MaxMachineWords {
			tr.Stats.MaxMachineWords = res
		}
	}

	// Pass 2 (parallel): scatter messages into the disjoint shard regions.
	//lint:parallel shards write disjoint cursor-assigned inbox regions; the final sort imposes the total order
	par.ParallelFor(w, w, func(wi int) {
		sh := &shards[wi]
		for sender := sh.lo; sender < sh.hi; sender++ {
			for _, msg := range tr.Outbox[sender] {
				next[msg.To][sh.cursor[msg.To]] = msg
				sh.cursor[msg.To]++
			}
		}
	})

	// Pass 3 (parallel): per-destination inbox sorts into the documented
	// (sender, key, send order) total order.
	//lint:parallel each destination's inbox is sorted in place by the unique (sender, key, seq) total order
	par.ParallelFor(w, n, func(d int) {
		if len(next[d]) >= 2 {
			SortInbox(next[d])
		}
	})

	// Recycle the inboxes consumed this round and keep their header array
	// for the next delivery. Slices handed out by Exchange never come back
	// here: Exchange replaces s.inbox with a freshly allocated header
	// array (all-nil entries), and that replacement is what arrives as the
	// next Recycle — the stolen buffers themselves are gone for good.
	// Pooled buffers are cleared to their full capacity so stale Payload
	// references don't pin the previous round's data until reuse.
	if prev := tr.Recycle; prev != nil {
		for i, buf := range prev {
			if cap(buf) > 0 && len(t.free) < 2*n {
				buf = buf[:cap(buf)]
				clear(buf)
				t.free = append(t.free, buf[:0])
			}
			prev[i] = nil
		}
		t.spare = prev
	}
	return next, nil
}

// grab returns a message buffer of length n, reusing pooled capacity when
// possible. Elements are uninitialized; the delivery passes overwrite all
// of them.
func (t *inprocTransport) grab(n int) []Message {
	if n == 0 {
		return nil
	}
	for i := len(t.free) - 1; i >= 0; i-- {
		if cap(t.free[i]) >= n {
			buf := t.free[i][:n]
			t.free[i] = t.free[len(t.free)-1]
			t.free[len(t.free)-1] = nil
			t.free = t.free[:len(t.free)-1]
			return buf
		}
	}
	return make([]Message, n)
}
