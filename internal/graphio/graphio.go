// Package graphio reads and writes graphs and budget vectors in two
// formats, so instances can be exchanged with other tools and experiments
// can be rerun on fixed inputs: a line-oriented text format and BMG1, a
// compact binary wire format (see binary.go).
//
// Text format:
//
//	# comments and blank lines are ignored
//	n <vertices>
//	b <v> <budget>          (optional; budgets default to 1)
//	e <u> <v> [weight]      (weight defaults to 1)
//
// A bare first line containing just an integer is also accepted as the
// vertex count, for compatibility with plain edge lists. Vertex counts and
// budgets are bounded by int32, as in BMG1.
//
// There is one read entry point per input kind: DecodeAnyLimits for a
// payload in memory (bmatchd's request bodies), DecodeBinary for a BMG1
// payload in memory, and ReadFile for a file. DecodeAnyLimits and ReadFile
// sniff the BMG1 magic and accept either format. All BMG1 input goes
// through one decoder.
package graphio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// Write serializes g and b (b may be nil).
func Write(w io.Writer, g *graph.Graph, b graph.Budgets) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "n %d\n", g.N)
	if b != nil {
		for v, x := range b {
			if x != 1 {
				fmt.Fprintf(bw, "b %d %d\n", v, x)
			}
		}
	}
	for _, e := range g.Edges {
		if e.W == 1 {
			fmt.Fprintf(bw, "e %d %d\n", e.U, e.V)
		} else {
			fmt.Fprintf(bw, "e %d %d %g\n", e.U, e.V, e.W)
		}
	}
	return bw.Flush()
}

// maxTextLine is the longest text line readLimits accepts, newline
// included; a longer one fails with bufio.ErrTooLong.
const maxTextLine = 1 << 20

// readLimits parses the text format with resource bounds (see Limits).
// Budgets default to 1 for every vertex. Counts and budgets are checked as
// they are parsed, before any count-sized allocation.
func readLimits(r io.Reader, lim Limits) (*graph.Graph, graph.Budgets, error) {
	// The buffer starts small and grows as lines need it, up to the 1 MiB
	// line limit, so a small body costs a small buffer.
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxTextLine)
	var (
		n      = -1
		edges  []graph.Edge
		budges map[int]int
		line   int
	)
	budges = map[int]int{}
	// setN bounds a vertex count as BMG1 does: by int32, then by lim.
	setN := func(v int) error {
		if v > math.MaxInt32 {
			return fmt.Errorf("graphio: line %d: vertex count %d exceeds int32", line, v)
		}
		if err := lim.checkN(v); err != nil {
			return err
		}
		n = v
		return nil
	}
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "n":
			if len(fields) != 2 {
				return nil, nil, fmt.Errorf("graphio: line %d: want 'n <count>'", line)
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil || v < 0 {
				return nil, nil, fmt.Errorf("graphio: line %d: bad vertex count %q", line, fields[1])
			}
			if err := setN(v); err != nil {
				return nil, nil, err
			}
		case "b":
			if len(fields) != 3 {
				return nil, nil, fmt.Errorf("graphio: line %d: want 'b <v> <budget>'", line)
			}
			v, err1 := strconv.Atoi(fields[1])
			x, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil || v < 0 {
				return nil, nil, fmt.Errorf("graphio: line %d: bad budget line", line)
			}
			if x > math.MaxInt32 {
				return nil, nil, fmt.Errorf("graphio: line %d: budget %d exceeds int32", line, x)
			}
			// Bound as parsed, not after: without this a body of distinct
			// out-of-range 'b' lines fills an unbounded map before the
			// final range check runs.
			if lim.MaxVertices > 0 && v >= lim.MaxVertices {
				return nil, nil, fmt.Errorf("graphio: line %d: budget vertex %d exceeds limit %d", line, v, lim.MaxVertices)
			}
			budges[v] = x
		case "e":
			if len(fields) < 3 || len(fields) > 4 {
				return nil, nil, fmt.Errorf("graphio: line %d: want 'e <u> <v> [w]'", line)
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil || u < 0 || v < 0 || u > math.MaxInt32 || v > math.MaxInt32 {
				// The int32 bound matters on 64-bit platforms: without it a
				// huge endpoint would truncate into range silently.
				return nil, nil, fmt.Errorf("graphio: line %d: bad endpoints", line)
			}
			w := 1.0
			if len(fields) == 4 {
				var err error
				w, err = strconv.ParseFloat(fields[3], 64)
				if err != nil {
					return nil, nil, fmt.Errorf("graphio: line %d: bad weight %q", line, fields[3])
				}
			}
			edges = append(edges, graph.Edge{U: int32(u), V: int32(v), W: w})
			if err := lim.checkM(len(edges)); err != nil {
				return nil, nil, err
			}
		default:
			// Compatibility: a bare integer first line is the vertex count;
			// bare "u v [w]" lines are edges.
			if n < 0 && len(fields) == 1 {
				v, err := strconv.Atoi(fields[0])
				if err != nil {
					return nil, nil, fmt.Errorf("graphio: line %d: unrecognized %q", line, text)
				}
				if v < 0 {
					return nil, nil, fmt.Errorf("graphio: line %d: bad vertex count %q", line, text)
				}
				if err := setN(v); err != nil {
					return nil, nil, err
				}
				continue
			}
			if len(fields) == 2 || len(fields) == 3 {
				u, err1 := strconv.Atoi(fields[0])
				v, err2 := strconv.Atoi(fields[1])
				if err1 != nil || err2 != nil || u < 0 || v < 0 || u > math.MaxInt32 || v > math.MaxInt32 {
					return nil, nil, fmt.Errorf("graphio: line %d: unrecognized %q", line, text)
				}
				w := 1.0
				if len(fields) == 3 {
					var err error
					w, err = strconv.ParseFloat(fields[2], 64)
					if err != nil {
						return nil, nil, fmt.Errorf("graphio: line %d: bad weight", line)
					}
				}
				edges = append(edges, graph.Edge{U: int32(u), V: int32(v), W: w})
				if err := lim.checkM(len(edges)); err != nil {
					return nil, nil, err
				}
				continue
			}
			return nil, nil, fmt.Errorf("graphio: line %d: unrecognized %q", line, text)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if n < 0 {
		return nil, nil, fmt.Errorf("graphio: missing vertex count")
	}
	g, err := graph.New(n, edges)
	if err != nil {
		return nil, nil, err
	}
	b := graph.UniformBudgets(n, 1)
	bad := -1 // the lowest out-of-range budget vertex, whatever the map order
	for v, x := range budges {
		if v < n {
			b[v] = x
		} else if bad < 0 || v < bad {
			bad = v
		}
	}
	if bad >= 0 {
		return nil, nil, fmt.Errorf("graphio: budget for out-of-range vertex %d", bad)
	}
	if err := b.Validate(g); err != nil {
		return nil, nil, err
	}
	return g, b, nil
}

// ReadFile reads a graph and budgets from path, auto-detecting the text or
// binary format from the leading bytes. BMG1 content is decoded through a
// window of at most 1 MiB that slides over the file, so the file is never
// held in memory: beyond the returned instance, decoding needs the window
// and the CSR build's transient counts, 4 bytes per vertex, or per-shard
// counts of at most 4 bytes per edge when GOMAXPROCS ≥ 2 and the instance
// has at least 65,536 edges.
func ReadFile(path string) (*graph.Graph, graph.Budgets, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	var head [len(BinaryMagic)]byte
	if _, err := io.ReadFull(f, head[:]); err == nil && string(head[:]) == BinaryMagic {
		st, err := f.Stat()
		if err != nil {
			return nil, nil, err
		}
		return decodeBinary(f, st.Size(), make([]byte, min(1<<20, st.Size())), Limits{})
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, nil, err
	}
	return readLimits(f, Limits{})
}

// Limits bounds what a decoder will accept. Zero fields are unlimited.
// Network-facing callers (bmatchd) must set them: the formats declare
// vertex counts up front, so without a bound an 11-byte hostile payload
// can demand multi-gigabyte allocations before validation can fail.
type Limits struct {
	MaxVertices int
	MaxEdges    int
}

func (l Limits) checkN(n int) error {
	if l.MaxVertices > 0 && n > l.MaxVertices {
		return fmt.Errorf("graphio: vertex count %d exceeds limit %d", n, l.MaxVertices)
	}
	return nil
}

func (l Limits) checkM(m int) error {
	if l.MaxEdges > 0 && m > l.MaxEdges {
		return fmt.Errorf("graphio: edge count %d exceeds limit %d", m, l.MaxEdges)
	}
	return nil
}

// DecodeAnyLimits parses either format from an in-memory payload, sniffing
// the BMG1 magic, with resource bounds. This is the entry point
// network-facing callers must use; BMG1 payloads are decoded in place.
func DecodeAnyLimits(data []byte, lim Limits) (*graph.Graph, graph.Budgets, error) {
	if len(data) >= len(BinaryMagic) && string(data[:len(BinaryMagic)]) == BinaryMagic {
		return decodeBinary(nil, int64(len(data)), data, lim)
	}
	return readLimits(bytes.NewReader(data), lim)
}
