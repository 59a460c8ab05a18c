package mpctransport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/mpc"
)

// DefaultDialTimeout bounds each worker dial when Dialer.DialTimeout is
// zero.
const DefaultDialTimeout = 5 * time.Second

// Dialer is the coordinator-side mpc.TransportFactory: it holds the
// worker addresses and dials a fresh set of connections for every
// simulation (NewTransport binds the address list to one cluster size by
// splitting the machine ids into contiguous ranges, one per worker).
// Per-simulation connections keep cancellation teardown trivial — closing
// the sockets ends exactly one simulation — and let concurrent solves
// share the same worker processes without coordination.
//
// The same *Dialer can serve any number of simulations concurrently.
type Dialer struct {
	// Addrs are the worker addresses ("host:port"). A simulation with
	// fewer machines than addresses uses a prefix of them.
	Addrs []string
	// DialTimeout bounds each dial (default DefaultDialTimeout).
	DialTimeout time.Duration
	// Limits hardens frame decoding (zero value = defaults).
	Limits Limits
}

// NewDialer is a convenience constructor for the common case.
func NewDialer(addrs ...string) *Dialer {
	return &Dialer{Addrs: addrs}
}

// NewTransport dials every worker and binds each connection to its
// machine range with a hello frame. The workers argument (the
// coordinator's compute parallelism) does not affect the wire protocol.
func (d *Dialer) NewTransport(n, workers int) (mpc.Transport, error) {
	if len(d.Addrs) == 0 {
		return nil, errors.New("mpctransport: dialer has no worker addresses")
	}
	w := len(d.Addrs)
	if w > n {
		w = n
	}
	timeout := d.DialTimeout
	if timeout <= 0 {
		timeout = DefaultDialTimeout
	}
	t := &transport{n: n, limits: d.Limits}
	for i := 0; i < w; i++ {
		// Balanced split: with w <= n every range is non-empty, which a
		// ceil-sized chunking does not guarantee (n=4 over 3 workers would
		// leave the last worker the empty [4, 4), which parseHello rejects).
		lo := i * n / w
		hi := (i + 1) * n / w
		conn, err := net.DialTimeout("tcp", d.Addrs[i], timeout)
		if err != nil {
			t.teardown()
			return nil, fmt.Errorf("mpctransport: dial worker %s: %w", d.Addrs[i], err)
		}
		c := &workerConn{
			conn: conn,
			br:   bufio.NewReaderSize(conn, 64<<10),
			bw:   bufio.NewWriterSize(conn, 64<<10),
			lo:   lo,
			hi:   hi,
		}
		t.conns = append(t.conns, c)
		hello := beginFrame(nil, frameHello)
		hello = appendUvarintLen(hello, n)
		hello = appendUvarintLen(hello, lo)
		hello = appendUvarintLen(hello, hi)
		hello, err = finishFrame(hello)
		if err == nil {
			_, err = c.bw.Write(hello)
		}
		if err == nil {
			err = c.bw.Flush()
		}
		if err != nil {
			t.teardown()
			return nil, fmt.Errorf("mpctransport: hello to worker %s: %w", d.Addrs[i], err)
		}
	}
	return t, nil
}

// transport is one simulation's set of worker connections. Deliver is
// called from a single goroutine (the Sim's), so per-transport state
// needs no locking; only teardown can race with it (from Close or the
// context's AfterFunc) and is guarded by a sync.Once.
type transport struct {
	n      int
	limits Limits
	conns  []*workerConn
	err    error // sticky: after any failure the transport is unusable

	recvWords []int64 // per-destination delivered words, reused across rounds

	down sync.Once
}

// workerConn is one worker connection and its scratch buffers. During a
// round exactly one goroutine touches it.
type workerConn struct {
	conn   net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	lo, hi int    // destination range [lo, hi)
	wbuf   []byte // encode scratch
	rbuf   []byte // decode scratch
}

// teardown severs every worker connection. Safe to call concurrently and
// repeatedly; the first call wins. Closing the sockets aborts any
// in-flight round reads/writes, which is how cancellation interrupts a
// superstep mid-delivery.
func (t *transport) teardown() {
	t.down.Do(func() {
		for _, c := range t.conns {
			c.conn.Close()
		}
	})
}

// Close implements mpc.Transport.
func (t *transport) Close() error {
	t.teardown()
	return nil
}

// Deliver implements mpc.Transport: fan the round's outboxes out to the
// workers (each gets exactly the messages destined for its range), read
// back the sorted inboxes, and fold the accounting exactly as the
// in-process merge does. One goroutine per connection overlaps the
// encode/write/read/decode work across workers; the destination ranges
// are disjoint, so they share the inbox array without locking.
func (t *transport) Deliver(tr *mpc.RoundTraffic) ([][]mpc.Message, error) {
	if t.err != nil {
		return nil, t.err
	}
	if ctx := tr.Ctx; ctx != nil {
		if err := ctx.Err(); err != nil {
			t.teardown()
			t.err = err
			return nil, err
		}
		// Cancellation mid-round severs the connections, failing the
		// in-flight reads/writes promptly.
		defer context.AfterFunc(ctx, t.teardown)()
	}
	inbox := make([][]mpc.Message, tr.N)
	if t.recvWords == nil {
		t.recvWords = make([]int64, tr.N)
	} else {
		clear(t.recvWords)
	}
	errs := make([]error, len(t.conns))
	var wg sync.WaitGroup
	for i, c := range t.conns {
		wg.Add(1)
		go func(i int, c *workerConn) {
			defer wg.Done()
			errs[i] = c.roundTrip(tr, inbox, t.recvWords, t.limits)
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err == nil {
			continue
		}
		t.teardown()
		// If the context died, the socket errors are just the teardown's
		// shrapnel; report the cancellation itself so the Sim's skip
		// semantics match the in-process backend.
		if ctx := tr.Ctx; ctx != nil && ctx.Err() != nil {
			err = ctx.Err()
		}
		t.err = err
		return nil, err
	}
	for d := 0; d < tr.N; d++ {
		rw := t.recvWords[d]
		tr.Stats.TotalTraffic += rw
		if io := tr.SentWords[d] + rw; io > tr.Stats.MaxRoundIO {
			tr.Stats.MaxRoundIO = io
		}
		if res := tr.Resident[d] + rw; res > tr.Stats.MaxMachineWords {
			tr.Stats.MaxMachineWords = res
		}
	}
	return inbox, nil
}

// roundTrip runs one worker's round: encode and send the messages
// destined for [lo, hi), then decode the sorted inbox reply into the
// shared inbox array and tally delivered words per destination.
func (c *workerConn) roundTrip(tr *mpc.RoundTraffic, inbox [][]mpc.Message, recvWords []int64, lim Limits) error {
	count := 0
	for sender := range tr.Outbox {
		for i := range tr.Outbox[sender] {
			if to := tr.Outbox[sender][i].To; to >= c.lo && to < c.hi {
				count++
			}
		}
	}
	buf := beginFrame(c.wbuf, frameRound)
	buf = appendUvarintLen(buf, count)
	var err error
	// Senders ascend and each outbox is in send order, so the worker sees
	// an order consistent with the in-process scatter; the final
	// (sender, key, seq) sort makes the inbox order unique regardless.
	for sender := range tr.Outbox {
		for i := range tr.Outbox[sender] {
			m := &tr.Outbox[sender][i]
			if m.To < c.lo || m.To >= c.hi {
				continue
			}
			if buf, err = appendMessage(buf, m); err != nil {
				c.wbuf = buf
				return err
			}
		}
	}
	if buf, err = finishFrame(buf); err != nil {
		return err
	}
	c.wbuf = buf
	if _, err = c.bw.Write(buf); err != nil {
		return err
	}
	if err = c.bw.Flush(); err != nil {
		return err
	}

	tag, body, rbuf, err := readFrame(c.br, c.rbuf, lim)
	c.rbuf = rbuf
	if err != nil {
		return err
	}
	switch tag {
	case frameError:
		return fmt.Errorf("mpctransport: worker %s: %s", c.conn.RemoteAddr(), body)
	case frameInbox:
	default:
		return fmt.Errorf("mpctransport: unexpected frame tag %d from worker", tag)
	}
	for d := c.lo; d < c.hi; d++ {
		cnt, rest, err := uvarint(body)
		if err != nil {
			return err
		}
		body = rest
		if cnt > int64(len(body)/minMessageBytes)+1 {
			return errTruncated
		}
		var box []mpc.Message
		if cnt > 0 {
			box = make([]mpc.Message, 0, cnt)
		}
		var rw int64
		for j := int64(0); j < cnt; j++ {
			var m mpc.Message
			m, body, err = decodeMessage(body)
			if err != nil {
				return err
			}
			if m.To != d {
				return fmt.Errorf("mpctransport: worker returned message for %d in inbox %d", m.To, d)
			}
			rw += m.Words
			box = append(box, m)
		}
		inbox[d] = box
		recvWords[d] = rw
	}
	if len(body) != 0 {
		return fmt.Errorf("mpctransport: %d trailing bytes after inbox frame", len(body))
	}
	return nil
}
