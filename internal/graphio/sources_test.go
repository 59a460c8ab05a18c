package graphio

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// tinyWindow is the smallest window decodeBinary accepts over a ReaderAt:
// one maximal edge record, less than two, so records keep crossing refills.
const tinyWindow = maxRecord

// sameInstance checks full structural equality: vertex count, the edge
// slice, the CSR incidence order, and the budgets.
func sameInstance(t *testing.T, g1, g2 *graph.Graph, b1, b2 graph.Budgets) {
	t.Helper()
	if g1.N != g2.N || g1.M() != g2.M() {
		t.Fatalf("shape mismatch: n=%d/%d m=%d/%d", g1.N, g2.N, g1.M(), g2.M())
	}
	for i := range g1.Edges {
		if g1.Edges[i] != g2.Edges[i] {
			t.Fatalf("edge %d: %v vs %v", i, g1.Edges[i], g2.Edges[i])
		}
	}
	for v := int32(0); int(v) < g1.N; v++ {
		i1, i2 := g1.Incident(v), g2.Incident(v)
		if len(i1) != len(i2) {
			t.Fatalf("vertex %d: degree %d vs %d", v, len(i1), len(i2))
		}
		for k := range i1 {
			if i1[k] != i2[k] {
				t.Fatalf("vertex %d: incidence %d is edge %d vs %d", v, k, i1[k], i2[k])
			}
		}
	}
	if len(b1) != len(b2) {
		t.Fatalf("budget length %d vs %d", len(b1), len(b2))
	}
	for v := range b1 {
		if b1[v] != b2[v] {
			t.Fatalf("budget[%d] = %d vs %d", v, b1[v], b2[v])
		}
	}
}

// decoded is one decode's outcome; decode(f(...)) captures any decoder's
// three results.
type decoded struct {
	g   *graph.Graph
	b   graph.Budgets
	err error
}

func decode(g *graph.Graph, b graph.Budgets, err error) decoded { return decoded{g, b, err} }

// sameDecode fails the test unless x and y failed with the same message or
// decoded identical instances.
func sameDecode(t *testing.T, x, y decoded) {
	t.Helper()
	if (x.err == nil) != (y.err == nil) || x.err != nil && x.err.Error() != y.err.Error() {
		t.Fatalf("sources disagree: %v vs %v", x.err, y.err)
	}
	if x.err == nil {
		sameInstance(t, x.g, y.g, x.b, y.b)
	}
}

// decodeTiny decodes payload through a tinyWindow window over a ReaderAt.
func decodeTiny(payload []byte, lim Limits) decoded {
	return decode(decodeBinary(bytes.NewReader(payload), int64(len(payload)), make([]byte, tinyWindow), lim))
}

// decodeSources decodes a BMG1 payload from every source: in memory,
// through a tinyWindow window, and through ReadFile when ReadFile would
// pick the binary decoder (the payload starts with the magic) and honour
// lim (it takes none). It fails the test unless all sources agree, and
// returns the in-memory outcome.
func decodeSources(t *testing.T, payload []byte, lim Limits) decoded {
	t.Helper()
	got := decode(decodeBinary(nil, int64(len(payload)), payload, lim))
	sameDecode(t, got, decodeTiny(payload, lim))
	if lim == (Limits{}) && bytes.HasPrefix(payload, []byte(BinaryMagic)) {
		path := filepath.Join(t.TempDir(), "payload.bmg")
		if err := os.WriteFile(path, payload, 0o644); err != nil {
			t.Fatal(err)
		}
		sameDecode(t, got, decode(ReadFile(path)))
	}
	return got
}

// TestDecodeBinaryStreamMatchesInMemory decodes valid payloads from every
// source and checks each reproduces the encoded instance exactly.
func TestDecodeBinaryStreamMatchesInMemory(t *testing.T) {
	r := rng.New(42)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		b    graph.Budgets
	}{
		{"unweighted", graph.Gnm(300, 2000, r.Split()), graph.RandomBudgets(300, 1, 4, r.Split())},
		{"weighted", graph.GnmWeighted(200, 1500, 1, 10, r.Split()), graph.UniformBudgets(200, 2)},
		{"empty", graph.MustNew(5, nil), graph.UniformBudgets(5, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := decodeSources(t, AppendBinaryTo(nil, tc.g, tc.b), Limits{})
			if got.err != nil {
				t.Fatal(got.err)
			}
			sameInstance(t, tc.g, got.g, tc.b, got.b)
		})
	}
}

func TestDecodeBinaryStreamRejects(t *testing.T) {
	r := rng.New(7)
	g := graph.GnmWeighted(50, 200, 1, 10, r.Split())
	payload := AppendBinaryTo(nil, g, graph.RandomBudgets(50, 1, 3, r.Split()))

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		lim     Limits
		errPart string
	}{
		{"bad magic", func(p []byte) []byte { q := append([]byte(nil), p...); q[0] = 'X'; return q }, Limits{}, "bad magic"},
		{"truncated", func(p []byte) []byte { return p[:len(p)-3] }, Limits{}, "truncated"},
		{"trailing", func(p []byte) []byte { return append(append([]byte(nil), p...), 0xFF) }, Limits{}, "trailing"},
		{"vertex limit", func(p []byte) []byte { return p }, Limits{MaxVertices: 10}, "exceeds limit"},
		{"edge limit", func(p []byte) []byte { return p }, Limits{MaxEdges: 10}, "exceeds limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := decodeSources(t, tc.mutate(payload), tc.lim).err
			if err == nil || !strings.Contains(err.Error(), tc.errPart) {
				t.Fatalf("err = %v, want containing %q", err, tc.errPart)
			}
		})
	}

	// A header that declares more edges than the payload can hold must be
	// rejected before the edge-sized allocations.
	hostile := []byte(BinaryMagic)
	hostile = append(hostile, 0 /* flags */, 3 /* n */, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F /* m: huge */, 0 /* nb */)
	if err := decodeSources(t, hostile, Limits{}).err; err == nil ||
		!strings.Contains(err.Error(), "larger than payload allows") {
		t.Fatalf("hostile header: err = %v", err)
	}
}

func TestDecodeBinaryStreamRejectsInvalidEdges(t *testing.T) {
	write := func(build func(w *BinaryWriter) error, weighted bool) error {
		var buf bytes.Buffer
		w, err := NewBinaryWriter(&buf, 4, 1, nil, weighted)
		if err != nil {
			return err
		}
		return build(w)
	}
	if err := write(func(w *BinaryWriter) error { return w.Edge(2, 2, 1) }, false); err == nil ||
		!strings.Contains(err.Error(), "self-loop") {
		t.Errorf("self-loop: err = %v", err)
	}
	if err := write(func(w *BinaryWriter) error { return w.Edge(1, 9, 1) }, false); err == nil ||
		!strings.Contains(err.Error(), "out of range") {
		t.Errorf("out of range: err = %v", err)
	}
	if err := write(func(w *BinaryWriter) error { return w.Edge(0, 1, math.NaN()) }, true); err == nil ||
		!strings.Contains(err.Error(), "invalid weight") {
		t.Errorf("NaN weight: err = %v", err)
	}
	if err := write(func(w *BinaryWriter) error { return w.Edge(0, 1, 2.5) }, false); err == nil ||
		!strings.Contains(err.Error(), "unweighted stream") {
		t.Errorf("weight in unweighted stream: err = %v", err)
	}

	// The decoder must reject the same malformed records when they arrive
	// from a hand-built payload rather than this writer.
	selfLoop := []byte(BinaryMagic)
	selfLoop = append(selfLoop, 0, 4 /* n */, 1 /* m */, 0 /* nb */, 2, 2)
	if err := decodeSources(t, selfLoop, Limits{}).err; err == nil ||
		!strings.Contains(err.Error(), "self-loop") {
		t.Errorf("decoder self-loop: err = %v", err)
	}
}

// TestReadFileAllocsFlat pins ReadFile's BMG1 path to a fixed number of
// allocations — the window and the instance's arrays — whatever the edge
// count: nothing on the per-edge path may allocate. The collector is off
// while it counts: a collection cycle inside AllocsPerRun allocates on its
// own, and whether one falls there depends on what ran before.
func TestReadFileAllocsFlat(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	r := rng.New(8)
	allocs := func(m int) float64 {
		g := graph.GnmWeighted(m/4, m, 1, 10, r.Split())
		path := filepath.Join(t.TempDir(), "weighted.bmg")
		if err := os.WriteFile(path, AppendBinaryTo(nil, g, nil), 0o644); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, _, err := ReadFile(path); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(2000), allocs(20000); small != large {
		t.Fatalf("ReadFile allocates %v times at m=2000 but %v at m=20000", small, large)
	}
}

// TestBinaryWriterMatchesAppendBinary pins byte-identity between the
// streaming writer and the in-memory encoder, which is what lets the two
// ingest paths share golden files and content-hash instance keys.
func TestBinaryWriterMatchesAppendBinary(t *testing.T) {
	r := rng.New(9)
	for _, weighted := range []bool{false, true} {
		var g *graph.Graph
		if weighted {
			g = graph.GnmWeighted(120, 800, 1, 10, r.Split())
		} else {
			g = graph.Gnm(120, 800, r.Split())
		}
		b := graph.RandomBudgets(g.N, 1, 4, r.Split())
		want := AppendBinaryTo(nil, g, b)

		var buf bytes.Buffer
		w, err := NewBinaryWriter(&buf, g.N, g.M(), b, weighted)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range g.Edges {
			if err := w.Edge(e.U, e.V, e.W); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("weighted=%v: streamed encoding differs from AppendBinaryTo (%d vs %d bytes)",
				weighted, buf.Len(), len(want))
		}
	}
}

func TestBinaryWriterCountContract(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewBinaryWriter(&buf, 3, 2, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Edge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil || !strings.Contains(err.Error(), "1 of 2 declared") {
		t.Fatalf("short close: err = %v", err)
	}

	buf.Reset()
	w, err = NewBinaryWriter(&buf, 3, 1, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Edge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.Edge(1, 2, 1); err == nil || !strings.Contains(err.Error(), "exceeds the declared count") {
		t.Fatalf("overfull: err = %v", err)
	}
}

// TestReadFileStreamsBinary checks the file entry point round-trips both
// formats, with BMG1 going through the windowed decoder.
func TestReadFileStreamsBinary(t *testing.T) {
	r := rng.New(3)
	g := graph.GnmWeighted(80, 500, 1, 10, r.Split())
	b := graph.RandomBudgets(80, 1, 4, r.Split())

	dir := t.TempDir()
	binPath := filepath.Join(dir, "inst.bmg")
	if err := os.WriteFile(binPath, AppendBinaryTo(nil, g, b), 0o644); err != nil {
		t.Fatal(err)
	}
	gB, bB, err := ReadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	sameInstance(t, g, gB, b, bB)

	textPath := filepath.Join(dir, "inst.txt")
	f, err := os.Create(textPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(f, g, b); err != nil {
		t.Fatal(err)
	}
	f.Close()
	gT, bT, err := ReadFile(textPath)
	if err != nil {
		t.Fatal(err)
	}
	sameInstance(t, g, gT, b, bT)
}
