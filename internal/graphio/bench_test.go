package graphio

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// benchInstance is a ≥10⁶-edge weighted instance, the scale at which the
// text parser becomes the bmatchd ingest bottleneck.
func benchInstance(tb testing.TB) (*graph.Graph, graph.Budgets) {
	tb.Helper()
	r := rng.New(5)
	g := graph.GnmWeighted(100000, 1000000, 1, 10, r.Split())
	b := graph.RandomBudgets(100000, 1, 4, r.Split())
	return g, b
}

// BenchmarkIngest1MEdges times each read entry point on one instance: text
// and BMG1 request bodies through DecodeAnyLimits, and the same BMG1 bytes
// from a file through ReadFile.
func BenchmarkIngest1MEdges(b *testing.B) {
	g, bud := benchInstance(b)
	var txt bytes.Buffer
	if err := Write(&txt, g, bud); err != nil {
		b.Fatal(err)
	}
	bin := AppendBinaryTo(nil, g, bud)
	path := filepath.Join(b.TempDir(), "ingest.bmg")
	if err := os.WriteFile(path, bin, 0o644); err != nil {
		b.Fatal(err)
	}
	b.Logf("text %0.1f MB, binary %0.1f MB", float64(txt.Len())/1e6, float64(len(bin))/1e6)

	for _, tc := range []struct {
		name string
		size int
		read func() (*graph.Graph, graph.Budgets, error)
	}{
		{"text", txt.Len(), func() (*graph.Graph, graph.Budgets, error) { return DecodeAnyLimits(txt.Bytes(), Limits{}) }},
		{"binary", len(bin), func() (*graph.Graph, graph.Budgets, error) { return DecodeAnyLimits(bin, Limits{}) }},
		{"file", len(bin), func() (*graph.Graph, graph.Budgets, error) { return ReadFile(path) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(int64(tc.size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := tc.read(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
