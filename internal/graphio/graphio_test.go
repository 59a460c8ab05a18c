package graphio

import (
	"bufio"
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

func TestRoundTrip(t *testing.T) {
	r := rng.New(1)
	g := graph.GnmWeighted(30, 90, 0.5, 5, r.Split())
	b := graph.RandomBudgets(30, 1, 4, r.Split())
	var buf bytes.Buffer
	if err := Write(&buf, g, b); err != nil {
		t.Fatal(err)
	}
	g2, b2, err := DecodeAnyLimits(buf.Bytes(), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if g2.N != g.N || g2.M() != g.M() {
		t.Fatalf("dimensions changed: %d/%d vs %d/%d", g2.N, g2.M(), g.N, g.M())
	}
	for e := range g.Edges {
		if g.Edges[e] != g2.Edges[e] {
			t.Fatalf("edge %d changed: %v vs %v", e, g.Edges[e], g2.Edges[e])
		}
	}
	for v := range b {
		if b[v] != b2[v] {
			t.Fatalf("budget %d changed: %d vs %d", v, b[v], b2[v])
		}
	}
}

func TestReadBareFormat(t *testing.T) {
	in := "4\n0 1\n1 2 2.5\n# comment\n\n2 3\n"
	g, b, err := DecodeAnyLimits([]byte(in), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 4 || g.M() != 3 {
		t.Fatalf("n=%d m=%d", g.N, g.M())
	}
	if g.Edges[1].W != 2.5 {
		t.Fatalf("weight = %v", g.Edges[1].W)
	}
	for _, x := range b {
		if x != 1 {
			t.Fatal("default budgets wrong")
		}
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"",                   // no vertex count
		"n 3\ne 0 9",         // endpoint out of range
		"n 3\ne 0 0",         // self-loop
		"n 3\nb 9 2\ne 0 1",  // budget out of range
		"n 3\ne 0 1 abc",     // bad weight
		"n x",                // bad count
		"n 3\nwhat is this",  // garbage
		"n 3\nb 0 -2\ne 0 1", // negative budget
	}
	for i, in := range cases {
		if _, _, err := DecodeAnyLimits([]byte(in), Limits{}); err == nil {
			t.Fatalf("case %d accepted: %q", i, in)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	g := graph.Path(5)
	b := graph.UniformBudgets(5, 2)
	var buf bytes.Buffer
	if err := Write(&buf, g, b); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	g2, b2, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.M() != 4 || b2.Sum() != 10 {
		t.Fatalf("file round trip: m=%d Σb=%d", g2.M(), b2.Sum())
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, _, err := ReadFile("/nonexistent/path/graph.txt"); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestTextVertexCountInt32: a text vertex count above int32 is rejected as
// BMG1 rejects it, before graph.New sizes anything by it; otherwise the
// 12-byte body below makes the CSR build allocate 12 GB.
func TestTextVertexCountInt32(t *testing.T) {
	for _, in := range []string{"n 3000000000", "3000000000\n"} {
		_, _, err := DecodeAnyLimits([]byte(in), Limits{})
		if err == nil || !strings.Contains(err.Error(), "vertex count 3000000000 exceeds int32") {
			t.Fatalf("%q: err = %v", in, err)
		}
	}
}

// TestTextBudgetInt32: a text budget above int32 is rejected, so every
// accepted text instance has a BMG1 encoding that decodes back.
func TestTextBudgetInt32(t *testing.T) {
	_, _, err := DecodeAnyLimits([]byte("n 2\ne 0 1\nb 0 3000000000\n"), Limits{})
	if err == nil || !strings.Contains(err.Error(), "budget 3000000000 exceeds int32") {
		t.Fatalf("err = %v", err)
	}
}

// TestTextBudgetRangeErrorDeterministic: with several out-of-range budget
// lines, the error names the lowest vertex on every decode.
func TestTextBudgetRangeErrorDeterministic(t *testing.T) {
	for i := 0; i < 50; i++ {
		_, _, err := DecodeAnyLimits([]byte("n 3\nb 7 2\nb 5 2\nb 9 1\n"), Limits{})
		if err == nil || err.Error() != "graphio: budget for out-of-range vertex 5" {
			t.Fatalf("decode %d: err = %v", i, err)
		}
	}
}

// TestTextDecodeAllocatesLittle: a tiny text body costs a small scanner
// buffer, not the 1 MiB line limit.
func TestTextDecodeAllocatesLittle(t *testing.T) {
	body := []byte("n 3\ne 0 1\n")
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := DecodeAnyLimits(body, Limits{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 64<<10 {
		t.Fatalf("decoding %q allocates %d B/op, want under 64 KiB", body, got)
	}
}

// TestTextLineLimit: a line of exactly maxTextLine bytes (newline
// included) still parses, and one byte more fails with bufio.ErrTooLong.
func TestTextLineLimit(t *testing.T) {
	pad := func(extra int) []byte {
		line := "# " + strings.Repeat("x", maxTextLine-3+extra) + "\n"
		return []byte("n 2\n" + line + "e 0 1\n")
	}
	g, _, err := DecodeAnyLimits(pad(0), Limits{})
	if err != nil || g.M() != 1 {
		t.Fatalf("line of %d bytes: err = %v", maxTextLine, err)
	}
	if _, _, err := DecodeAnyLimits(pad(1), Limits{}); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("line of %d bytes: err = %v, want bufio.ErrTooLong", maxTextLine+1, err)
	}
}
