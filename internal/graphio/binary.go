// Binary wire format. The text format's line splitting and strconv calls
// dominate ingest time on million-edge instances; this length-prefixed
// binary encoding parses the same graphs several times faster and is the
// preferred payload for bmatchd at scale.
//
// Layout (all integers unsigned varints, weights little-endian float64):
//
//	"BMG1"                    magic + version
//	flags                     1 byte; bit0 = per-edge weights present
//	n                         vertex count
//	m                         edge count
//	nb                        number of explicit budget entries
//	nb × (v, budget)          budgets; unlisted vertices default to 1
//	m × (u, v [, w])          edges; w only when bit0 is set
//
// Trailing bytes after the last edge are an error, so truncation and
// concatenation bugs surface instead of silently shortening instances.
//
// decodeBinary is the format's one decoder: DecodeAnyLimits and
// DecodeBinary run it over a payload in place, ReadFile over a window
// sliding along the file. AppendBinaryTo and BinaryWriter emit the same
// bytes for the same instance.

package graphio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/graph"
)

// BinaryMagic is the 4-byte magic + version prefix of the binary format.
const BinaryMagic = "BMG1"

const flagWeighted = 1 << 0

// maxRecord bounds the encoded size of one edge record: two varints of at
// most binary.MaxVarintLen64 bytes each (binary.Uvarint never reads past
// that) and a weight.
const maxRecord = 2*binary.MaxVarintLen64 + 8

// AppendBinaryTo appends the binary encoding of g and b (b may be nil) to
// dst and returns the extended slice. Passing a reused dst[:0] makes
// repeated encodes allocation-free once the buffer has grown; sessions
// rely on this.
func AppendBinaryTo(dst []byte, g *graph.Graph, b graph.Budgets) []byte {
	weighted := false
	for _, e := range g.Edges {
		if e.W != 1 {
			weighted = true
			break
		}
	}
	var flags byte
	if weighted {
		flags |= flagWeighted
	}
	var nb int
	for _, x := range b {
		if x != 1 {
			nb++
		}
	}
	// Worst-case size: varints of int32-ranged values take ≤ 5 bytes, so a
	// single up-front grow makes the first encode one allocation and reused
	// buffers allocation-free.
	perEdge := 10
	if weighted {
		perEdge += 8
	}
	need := 32 + 10*nb + perEdge*len(g.Edges)
	buf := dst
	if cap(buf)-len(buf) < need {
		grown := make([]byte, len(buf), len(buf)+need)
		copy(grown, buf)
		buf = grown
	}
	buf = append(buf, BinaryMagic...)
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(g.N))
	buf = binary.AppendUvarint(buf, uint64(len(g.Edges)))
	buf = binary.AppendUvarint(buf, uint64(nb))
	for v, x := range b {
		if x != 1 {
			buf = binary.AppendUvarint(buf, uint64(v))
			buf = binary.AppendUvarint(buf, uint64(x))
		}
	}
	for _, e := range g.Edges {
		buf = binary.AppendUvarint(buf, uint64(e.U))
		buf = binary.AppendUvarint(buf, uint64(e.V))
		if weighted {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.W))
		}
	}
	return buf
}

// DecodeBinary parses a graph and budgets from an in-memory binary-format
// buffer, with no resource limits.
func DecodeBinary(data []byte) (*graph.Graph, graph.Budgets, error) {
	return decodeBinary(nil, int64(len(data)), data, Limits{})
}

// window is decodeBinary's view of its input: buf holds the input bytes
// [base, base+len(buf)) and pos is the next unread byte of buf. Error
// offsets are input offsets, so an input fails with the same message
// whatever the window size.
type window struct {
	src  io.ReaderAt // nil when buf is the whole input
	size int64       // input length
	base int64
	buf  []byte
	pos  int
}

func (w *window) off() int64 { return w.base + int64(w.pos) }

// fill slides the window forward over src and refills it to its capacity
// or to the end of the input, so the field or edge record about to be read
// never straddles the window's end. Callers test the window's length
// first, which keeps the cost per read one comparison.
func (w *window) fill() error {
	if w.base+int64(len(w.buf)) == w.size {
		return nil
	}
	kept := copy(w.buf[:cap(w.buf)], w.buf[w.pos:])
	w.base += int64(w.pos)
	w.pos = 0
	end := int(min(int64(cap(w.buf)), w.size-w.base))
	got, err := w.src.ReadAt(w.buf[kept:end], w.base+int64(kept))
	if got < end-kept {
		return fmt.Errorf("graphio: read at byte %d: %w", w.base+int64(kept+got), err)
	}
	w.buf = w.buf[:end]
	return nil
}

func (w *window) uvarint(what string) (uint64, error) {
	// binary.Uvarint reads at most MaxVarintLen64 bytes.
	if len(w.buf)-w.pos < binary.MaxVarintLen64 {
		if err := w.fill(); err != nil {
			return 0, err
		}
	}
	x, k := binary.Uvarint(w.buf[w.pos:])
	if k <= 0 {
		return 0, fmt.Errorf("graphio: truncated or malformed %s at byte %d", what, w.off())
	}
	w.pos += k
	return x, nil
}

// edge decodes record i, an edge with its weight when the stream is
// weighted (1 otherwise). The record's fields are decoded from a local
// slice, so the per-edge path makes no further calls.
func (w *window) edge(i int, weighted bool) (graph.Edge, error) {
	if len(w.buf)-w.pos < maxRecord {
		if err := w.fill(); err != nil {
			return graph.Edge{}, err
		}
	}
	rec := w.buf[w.pos:]
	u, k := binary.Uvarint(rec)
	if k <= 0 {
		return graph.Edge{}, fmt.Errorf("graphio: truncated or malformed edge endpoint at byte %d", w.off())
	}
	v, kv := binary.Uvarint(rec[k:])
	if kv <= 0 {
		return graph.Edge{}, fmt.Errorf("graphio: truncated or malformed edge endpoint at byte %d", w.off()+int64(k))
	}
	k += kv
	if u > math.MaxInt32 || v > math.MaxInt32 {
		return graph.Edge{}, fmt.Errorf("graphio: edge %d endpoint exceeds int32", i)
	}
	e := graph.Edge{U: int32(u), V: int32(v), W: 1}
	if weighted {
		if len(rec)-k < 8 {
			return graph.Edge{}, fmt.Errorf("graphio: truncated edge weight at byte %d", w.off()+int64(k))
		}
		e.W = math.Float64frombits(binary.LittleEndian.Uint64(rec[k:]))
		k += 8
	}
	w.pos += k
	return e, nil
}

// decodeBinary is the one BMG1 decoder. It reads an input of size bytes:
// with src nil, win is the whole input and is decoded in place; otherwise
// win is scratch (capacity at least maxRecord, or size) that holds a
// sliding window over src. Limits are enforced before any count-sized
// allocation. Every edge record is decoded in one pass into the edge slice
// that graph.New validates and indexes.
func decodeBinary(src io.ReaderAt, size int64, win []byte, lim Limits) (*graph.Graph, graph.Budgets, error) {
	if size < int64(len(BinaryMagic))+1 {
		return nil, nil, fmt.Errorf("graphio: binary input too short (%d bytes)", size)
	}
	w := window{src: src, size: size, buf: win}
	if src != nil {
		w.buf = win[:0]
		if err := w.fill(); err != nil {
			return nil, nil, err
		}
	}
	if string(w.buf[:len(BinaryMagic)]) != BinaryMagic {
		return nil, nil, fmt.Errorf("graphio: bad magic %q (want %q)", w.buf[:len(BinaryMagic)], BinaryMagic)
	}
	flags := w.buf[len(BinaryMagic)]
	if flags&^flagWeighted != 0 {
		return nil, nil, fmt.Errorf("graphio: unknown flag bits %#x", flags&^flagWeighted)
	}
	weighted := flags&flagWeighted != 0
	w.pos = len(BinaryMagic) + 1

	n64, err := w.uvarint("vertex count")
	if err != nil {
		return nil, nil, err
	}
	if n64 > math.MaxInt32 {
		return nil, nil, fmt.Errorf("graphio: vertex count %d exceeds int32", n64)
	}
	n := int(n64)
	if err := lim.checkN(n); err != nil {
		return nil, nil, err
	}
	m64, err := w.uvarint("edge count")
	if err != nil {
		return nil, nil, err
	}
	if lim.MaxEdges > 0 && m64 > uint64(lim.MaxEdges) {
		return nil, nil, fmt.Errorf("graphio: edge count %d exceeds limit %d", m64, lim.MaxEdges)
	}
	// Each edge costs at least 2 bytes (more when weighted), so an edge
	// count larger than the remaining payload is malformed; rejecting it
	// here keeps hostile headers from forcing huge allocations.
	minEdge := uint64(2)
	if weighted {
		minEdge += 8
	}
	if m64 > uint64(size-w.off())/minEdge+1 {
		return nil, nil, fmt.Errorf("graphio: edge count %d larger than payload allows", m64)
	}
	m := int(m64)

	nb, err := w.uvarint("budget count")
	if err != nil {
		return nil, nil, err
	}
	if nb > uint64(size-w.off())/2+1 {
		return nil, nil, fmt.Errorf("graphio: budget count %d larger than payload allows", nb)
	}
	b := graph.UniformBudgets(n, 1)
	for i := uint64(0); i < nb; i++ {
		v, err := w.uvarint("budget vertex")
		if err != nil {
			return nil, nil, err
		}
		x, err := w.uvarint("budget value")
		if err != nil {
			return nil, nil, err
		}
		if v >= uint64(n) {
			return nil, nil, fmt.Errorf("graphio: budget for out-of-range vertex %d", v)
		}
		if x > math.MaxInt32 {
			return nil, nil, fmt.Errorf("graphio: budget %d exceeds int32", x)
		}
		b[v] = int(x)
	}

	edges := make([]graph.Edge, m)
	for i := range edges {
		if edges[i], err = w.edge(i, weighted); err != nil {
			return nil, nil, err
		}
	}
	if w.off() != size {
		return nil, nil, fmt.Errorf("graphio: %d trailing bytes after last edge", size-w.off())
	}
	g, err := graph.New(n, edges)
	if err != nil {
		return nil, nil, err
	}
	return g, b, nil
}

// A BinaryWriter emits the binary format incrementally: NewBinaryWriter
// writes the header and budgets, each Edge call appends one record, and
// Close verifies the declared edge count was met. Generators use it to
// write instances edge by edge — the format declares n, m, and the
// weighted flag up front, which is the price of never buffering the edges.
// Its output is byte-identical to AppendBinaryTo for the same instance and
// flag choice.
type BinaryWriter struct {
	bw       *bufio.Writer
	n        int
	declared int
	written  int
	weighted bool
	err      error
}

// NewBinaryWriter starts a binary-format stream for an n-vertex, m-edge
// instance with budgets b (nil for all-1). weighted declares whether edge
// records carry weights; an unweighted stream rejects Edge calls with
// weight ≠ 1.
func NewBinaryWriter(w io.Writer, n, m int, b graph.Budgets, weighted bool) (*BinaryWriter, error) {
	if n < 0 || m < 0 {
		return nil, fmt.Errorf("graphio: negative instance size n=%d m=%d", n, m)
	}
	if len(b) > n {
		return nil, fmt.Errorf("graphio: budget vector has %d entries for n=%d", len(b), n)
	}
	bw := &BinaryWriter{bw: bufio.NewWriterSize(w, 1<<20), n: n, declared: m, weighted: weighted}
	var flags byte
	if weighted {
		flags |= flagWeighted
	}
	bw.bw.WriteString(BinaryMagic)
	bw.bw.WriteByte(flags)
	bw.uvarint(uint64(n))
	bw.uvarint(uint64(m))
	var nb int
	for _, x := range b {
		if x != 1 {
			nb++
		}
	}
	bw.uvarint(uint64(nb))
	for v, x := range b {
		if x != 1 {
			if x < 0 {
				return nil, fmt.Errorf("graphio: negative budget %d for vertex %d", x, v)
			}
			bw.uvarint(uint64(v))
			bw.uvarint(uint64(x))
		}
	}
	if err := bw.bw.Flush(); err != nil {
		return nil, err
	}
	return bw, nil
}

func (w *BinaryWriter) uvarint(x uint64) {
	var buf [binary.MaxVarintLen64]byte
	w.bw.Write(buf[:binary.PutUvarint(buf[:], x)])
}

// Edge appends one edge record. It validates the edge with graph.CheckEdge,
// the check graph.New applies, so every stream this writer completes
// decodes successfully.
func (w *BinaryWriter) Edge(u, v int32, wt float64) error {
	if w.err != nil {
		return w.err
	}
	if w.written >= w.declared {
		w.err = fmt.Errorf("graphio: edge %d exceeds the declared count %d", w.written, w.declared)
	} else if err := graph.CheckEdge(w.n, w.written, graph.Edge{U: u, V: v, W: wt}); err != nil {
		w.err = err
	} else if !w.weighted && wt != 1 {
		w.err = fmt.Errorf("graphio: edge %d has weight %v in an unweighted stream", w.written, wt)
	}
	if w.err != nil {
		return w.err
	}
	w.uvarint(uint64(u))
	w.uvarint(uint64(v))
	if w.weighted {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(wt))
		w.bw.Write(buf[:])
	}
	w.written++
	return nil
}

// Close flushes the stream and fails if the edge count does not match the
// declared m. It does not close the underlying writer.
func (w *BinaryWriter) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.written != w.declared {
		w.err = fmt.Errorf("graphio: stream closed after %d of %d declared edges", w.written, w.declared)
		return w.err
	}
	if err := w.bw.Flush(); err != nil {
		w.err = err
		return err
	}
	w.err = fmt.Errorf("graphio: writer already closed") // arms later calls
	return nil
}
