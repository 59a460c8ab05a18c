package mpctransport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/mpc"
)

// Worker serves the worker side of the protocol: each accepted connection
// is bound by its hello frame to a contiguous machine range [lo, hi) of
// an n-machine simulation, and then answers one round frame per superstep
// with the range's inboxes sorted into the (sender, key, seq) delivery
// order. A worker process hosts any number of concurrent simulations —
// each lives on its own connection — which is what lets one worker serve
// every compression iteration of a solve, and every solve of a pool.
type Worker struct {
	ln     net.Listener
	limits Limits

	active atomic.Int64 // open coordinator connections; tests assert release

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// Listen starts a worker on addr (e.g. "127.0.0.1:0" for tests). Serve
// must be called to accept coordinators.
func Listen(addr string, lim Limits) (*Worker, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewWorker(ln, lim), nil
}

// NewWorker wraps an existing listener.
func NewWorker(ln net.Listener, lim Limits) *Worker {
	return &Worker{ln: ln, limits: lim, conns: make(map[net.Conn]struct{})}
}

// Addr is the listener's address (useful with ":0").
func (w *Worker) Addr() net.Addr { return w.ln.Addr() }

// ActiveConns is the number of coordinator connections currently open.
// Cancellation tests assert it returns to zero after teardown.
func (w *Worker) ActiveConns() int64 { return w.active.Load() }

// Serve accepts coordinator connections until Close. It returns nil after
// Close, or the listener's error otherwise.
func (w *Worker) Serve() error {
	for {
		conn, err := w.ln.Accept()
		if err != nil {
			w.mu.Lock()
			closed := w.closed
			w.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			conn.Close()
			return nil
		}
		w.conns[conn] = struct{}{}
		w.wg.Add(1)
		w.mu.Unlock()
		w.active.Add(1)
		go func() {
			defer w.wg.Done()
			defer w.active.Add(-1)
			w.serveConn(conn)
			w.mu.Lock()
			delete(w.conns, conn)
			w.mu.Unlock()
		}()
	}
}

// Close stops accepting, severs open connections, and waits for their
// handlers to return.
func (w *Worker) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	for conn := range w.conns {
		conn.Close()
	}
	w.mu.Unlock()
	err := w.ln.Close()
	w.wg.Wait()
	return err
}

// session is one connection's simulation binding, established by hello.
type session struct {
	n, lo, hi int
	boxes     [][]mpc.Message // per local destination, reused across rounds
}

// serveConn runs one coordinator connection to completion. Protocol
// errors are reported back as an error frame and close the connection;
// I/O errors (including the coordinator simply closing, the normal end
// of a simulation and the cancellation teardown path) just close it.
func (w *Worker) serveConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)
	var in, out []byte // frame scratch, reused across rounds
	var sess *session
	for {
		tag, body, nbuf, err := readFrame(br, in, w.limits)
		in = nbuf
		if err != nil {
			return // coordinator hung up or sent garbage framing
		}
		switch tag {
		case frameHello:
			s, err := parseHello(body)
			if err != nil {
				writeErrorFrame(bw, &out, err)
				return
			}
			sess = s
		case frameRound:
			if sess == nil {
				writeErrorFrame(bw, &out, errors.New("mpctransport: round before hello"))
				return
			}
			reply, err := sess.round(body, out)
			if err != nil {
				writeErrorFrame(bw, &out, err)
				return
			}
			out = reply
			if _, err := bw.Write(reply); err != nil {
				return
			}
			if err := bw.Flush(); err != nil {
				return
			}
		default:
			writeErrorFrame(bw, &out, fmt.Errorf("mpctransport: unexpected frame tag %d", tag))
			return
		}
	}
}

// parseHello validates the simulation binding: cluster size n and the
// machine range [lo, hi) this connection owns.
func parseHello(body []byte) (*session, error) {
	n, body, err := uvarint(body)
	if err != nil {
		return nil, err
	}
	lo, body, err := uvarint(body)
	if err != nil {
		return nil, err
	}
	hi, body, err := uvarint(body)
	if err != nil {
		return nil, err
	}
	if len(body) != 0 {
		return nil, errMalformed
	}
	if n < 1 || lo < 0 || lo >= hi || hi > n {
		return nil, fmt.Errorf("mpctransport: invalid hello range [%d, %d) of %d machines", lo, hi, n)
	}
	return &session{
		n:     int(n),
		lo:    int(lo),
		hi:    int(hi),
		boxes: make([][]mpc.Message, hi-lo),
	}, nil
}

// round handles one round frame: bucket the messages per destination,
// sort each bucket into the (sender, key, seq) total order — the same
// order mpc.SortInbox defines, so the coordinator's reassembled inboxes
// are bit-identical to the in-process backend's — and encode the inbox
// reply onto out (reusing its capacity).
func (s *session) round(body, out []byte) ([]byte, error) {
	count, body, err := uvarint(body)
	if err != nil {
		return nil, err
	}
	if count > int64(len(body)/minMessageBytes)+1 {
		return nil, errTruncated
	}
	for d := range s.boxes {
		s.boxes[d] = s.boxes[d][:0]
	}
	for i := int64(0); i < count; i++ {
		var m mpc.Message
		m, body, err = decodeMessage(body)
		if err != nil {
			return nil, err
		}
		if m.From < 0 || m.From >= s.n {
			return nil, fmt.Errorf("mpctransport: sender %d outside cluster of %d", m.From, s.n)
		}
		if m.To < s.lo || m.To >= s.hi {
			return nil, fmt.Errorf("mpctransport: destination %d outside this worker's range [%d, %d)", m.To, s.lo, s.hi)
		}
		s.boxes[m.To-s.lo] = append(s.boxes[m.To-s.lo], m)
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("mpctransport: %d trailing bytes after round frame", len(body))
	}
	reply := beginFrame(out, frameInbox)
	for d := range s.boxes {
		mpc.SortInbox(s.boxes[d])
		reply = appendUvarintLen(reply, len(s.boxes[d]))
		for i := range s.boxes[d] {
			reply, err = appendMessage(reply, &s.boxes[d][i])
			if err != nil {
				return nil, err
			}
		}
	}
	return finishFrame(reply)
}

// writeErrorFrame best-effort reports a protocol error back to the
// coordinator before the connection is dropped.
func writeErrorFrame(bw *bufio.Writer, scratch *[]byte, err error) {
	buf := beginFrame(*scratch, frameError)
	buf = append(buf, err.Error()...)
	buf, ferr := finishFrame(buf)
	*scratch = buf
	if ferr != nil {
		return
	}
	if _, werr := bw.Write(buf); werr == nil {
		bw.Flush()
	}
}
