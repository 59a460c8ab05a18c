package graphio

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// roundTripBoth writes g/b in both formats, reads each back through the
// sniffing entry point, and checks the results are identical.
func roundTripBoth(t *testing.T, g *graph.Graph, b graph.Budgets) {
	t.Helper()
	var txt bytes.Buffer
	if err := Write(&txt, g, b); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{{"text", txt.Bytes()}, {"binary", AppendBinaryTo(nil, g, b)}} {
		g2, b2, err := DecodeAnyLimits(tc.data, Limits{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if g2.N != g.N || g2.M() != g.M() {
			t.Fatalf("%s: got n=%d m=%d, want n=%d m=%d", tc.name, g2.N, g2.M(), g.N, g.M())
		}
		for i, e := range g.Edges {
			if g2.Edges[i] != e {
				t.Fatalf("%s: edge %d = %+v, want %+v", tc.name, i, g2.Edges[i], e)
			}
		}
		for v := range b {
			if b2[v] != b[v] {
				t.Fatalf("%s: budget[%d] = %d, want %d", tc.name, v, b2[v], b[v])
			}
		}
	}
}

func TestBinaryRoundTripUnweighted(t *testing.T) {
	r := rng.New(1)
	g := graph.Gnm(50, 300, r.Split())
	roundTripBoth(t, g, graph.UniformBudgets(50, 1))
}

func TestBinaryRoundTripWeighted(t *testing.T) {
	r := rng.New(2)
	g := graph.GnmWeighted(40, 200, 0.5, 9.5, r.Split())
	roundTripBoth(t, g, graph.UniformBudgets(40, 1))
}

func TestBinaryRoundTripNonUniformBudgets(t *testing.T) {
	r := rng.New(3)
	g := graph.Gnm(30, 100, r.Split())
	b := graph.RandomBudgets(30, 1, 5, r.Split())
	roundTripBoth(t, g, b)
}

func TestBinaryRoundTripEmptyGraph(t *testing.T) {
	g := graph.MustNew(0, nil)
	roundTripBoth(t, g, graph.Budgets{})
	g5 := graph.MustNew(5, nil) // vertices but no edges
	roundTripBoth(t, g5, graph.UniformBudgets(5, 2))
}

func TestBinaryRejectsMalformed(t *testing.T) {
	r := rng.New(4)
	g := graph.GnmWeighted(20, 60, 1, 5, r.Split())
	b := graph.RandomBudgets(20, 1, 3, r.Split())
	good := AppendBinaryTo(nil, g, b)

	// Every strict prefix must fail loudly, never succeed or panic, and
	// with the same message in memory and through a window.
	for cut := 0; cut < len(good); cut++ {
		got := decode(DecodeBinary(good[:cut]))
		if got.err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", cut, len(good))
		}
		sameDecode(t, got, decodeTiny(good[:cut], Limits{}))
	}
	// Trailing garbage is an error, not silently ignored.
	if _, _, err := DecodeBinary(append(append([]byte{}, good...), 0x7)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// Wrong magic.
	bad := append([]byte{}, good...)
	bad[0] = 'X'
	if _, _, err := DecodeBinary(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Unknown flag bits.
	bad = append([]byte{}, good...)
	bad[4] |= 0x80
	if _, _, err := DecodeBinary(bad); err == nil {
		t.Fatal("unknown flags accepted")
	}
	// Hostile edge count must not allocate: n=1, m=2^40, no payload.
	hostile := []byte(BinaryMagic)
	hostile = append(hostile, 0)                                  // flags
	hostile = append(hostile, 1)                                  // n = 1
	hostile = append(hostile, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40) // huge m
	if _, _, err := DecodeBinary(hostile); err == nil {
		t.Fatal("hostile edge count accepted")
	}
}

func TestReadAnySniffsText(t *testing.T) {
	g, b, err := DecodeAnyLimits([]byte("n 3\ne 0 1\ne 1 2 2.5\nb 2 4\n"), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 3 || g.M() != 2 || b[2] != 4 || g.Edges[1].W != 2.5 {
		t.Fatalf("text sniffing mis-parsed: n=%d m=%d b=%v", g.N, g.M(), b)
	}
}

func TestBinaryRejectsInvalidGraph(t *testing.T) {
	// Self-loop and NaN weight must be rejected by graph validation even
	// though the encoding itself is well-formed.
	data := []byte(BinaryMagic)
	data = append(data, 0) // unweighted
	data = append(data, 4) // n
	data = append(data, 1) // m
	data = append(data, 0) // nb
	data = append(data, 2, 2)
	if _, _, err := DecodeBinary(data); err == nil {
		t.Fatal("self-loop accepted")
	}
	nan := []byte(BinaryMagic)
	nan = append(nan, flagWeighted)
	nan = append(nan, 4, 1, 0, 0, 1)
	var wbits [8]byte
	for i, x := range nanBytes() {
		wbits[i] = x
	}
	nan = append(nan, wbits[:]...)
	if _, _, err := DecodeBinary(nan); err == nil {
		t.Fatal("NaN weight accepted")
	}
}

func nanBytes() []byte {
	bits := math.Float64bits(math.NaN())
	out := make([]byte, 8)
	for i := range out {
		out[i] = byte(bits >> (8 * i))
	}
	return out
}

func FuzzRead(f *testing.F) {
	r := rng.New(11)
	g := graph.GnmWeighted(12, 30, 1, 4, r.Split())
	b := graph.RandomBudgets(12, 1, 3, r.Split())
	var txt bytes.Buffer
	if err := Write(&txt, g, b); err != nil {
		f.Fatal(err)
	}
	f.Add(txt.Bytes())
	f.Add(AppendBinaryTo(nil, g, b))
	f.Add(AppendBinaryTo(nil, graph.MustNew(0, nil), nil))
	f.Add([]byte("n 2\ne 0 1\n"))
	f.Add([]byte("3\n0 1\n1 2 2.0\n"))
	f.Add([]byte(BinaryMagic))
	f.Add([]byte(BinaryMagic + "\x00\x05\x00\x00"))
	f.Add([]byte("n 3000000000"))
	f.Add([]byte("n 2\ne 0 1\nb 0 3000000000\n"))
	f.Add([]byte("n 3\nb 7 2\nb 5 2\nb 9 1\n"))

	// bmatchd-style bounds: unbounded, a header declaring a huge vertex
	// count makes the fuzzing worker allocate until it is killed.
	lim := Limits{MaxVertices: 1 << 16, MaxEdges: 1 << 18}
	f.Fuzz(func(t *testing.T, data []byte) {
		got := decode(DecodeAnyLimits(data, lim))
		sameDecode(t, got, decode(DecodeAnyLimits(data, lim)))
		if bytes.HasPrefix(data, []byte(BinaryMagic)) {
			sameDecode(t, got, decodeTiny(data, lim))
		}
		if got.err != nil {
			return
		}
		// Successful parses must yield a self-consistent instance that
		// round-trips through the binary format.
		if err := got.b.Validate(got.g); err != nil {
			t.Fatalf("parsed instance fails validation: %v", err)
		}
		g2, b2, err := DecodeBinary(AppendBinaryTo(nil, got.g, got.b))
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		sameInstance(t, got.g, g2, got.b, b2)
	})
}

// TestDecodeLimits pins the resource bounds: a tiny payload declaring a
// huge vertex count must be rejected before any count-sized allocation, in
// both formats.
func TestDecodeLimits(t *testing.T) {
	lim := Limits{MaxVertices: 1000, MaxEdges: 1000}

	// Binary: "BMG1" + flags 0 + n=2^31-1 + m=0 + nb=0 — 11 bytes that
	// would otherwise demand gigabytes.
	hostile := []byte(BinaryMagic)
	hostile = append(hostile, 0)
	hostile = append(hostile, 0xff, 0xff, 0xff, 0xff, 0x07) // n = 2^31-1
	hostile = append(hostile, 0, 0)
	if _, _, err := DecodeAnyLimits(hostile, lim); err == nil {
		t.Fatal("binary hostile vertex count accepted")
	}
	// Text forms, including the bare-integer first line.
	for _, txt := range []string{"n 2147483647\n", "2147483647\n"} {
		if _, _, err := DecodeAnyLimits([]byte(txt), lim); err == nil {
			t.Fatalf("text %q accepted", txt)
		}
	}
	// Edge limit: 1001 edges over a 3-vertex graph.
	var sb strings.Builder
	sb.WriteString("n 3\n")
	for i := 0; i < 1001; i++ {
		sb.WriteString("e 0 1\n")
	}
	if _, _, err := DecodeAnyLimits([]byte(sb.String()), lim); err == nil {
		t.Fatal("text edge-count limit not enforced")
	}
	// Within limits still parses.
	if _, _, err := DecodeAnyLimits([]byte("n 3\ne 0 1\n"), lim); err != nil {
		t.Fatalf("in-limits instance rejected: %v", err)
	}
	// Unlimited (library use) keeps accepting large declared counts cheaply.
	if _, _, err := DecodeAnyLimits([]byte("n 100000\n"), Limits{}); err != nil {
		t.Fatalf("unlimited decode rejected benign instance: %v", err)
	}
}

// TestTextLimitsAndOverflow pins the parse-time bounds on text budget
// lines and the int32 endpoint guard (a huge endpoint must error, not
// truncate into range).
func TestTextLimitsAndOverflow(t *testing.T) {
	lim := Limits{MaxVertices: 100}
	if _, _, err := DecodeAnyLimits([]byte("b 1000000 2\nn 10\n"), lim); err == nil {
		t.Fatal("out-of-limit budget vertex accepted")
	}
	if _, _, err := DecodeAnyLimits([]byte("n 10\ne 4294967301 2\n"), Limits{}); err == nil {
		t.Fatal("int32-overflowing endpoint accepted")
	}
	if _, _, err := DecodeAnyLimits([]byte("n 10\ne -1 2\n"), Limits{}); err == nil {
		t.Fatal("negative endpoint accepted")
	}
	if _, _, err := DecodeAnyLimits([]byte("n 10\nb -1 2\n"), Limits{}); err == nil {
		t.Fatal("negative budget vertex accepted")
	}
}
