package loadgen

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/rng"
)

// FamilySpec asks the corpus builder for Count instances of one family at
// one size. Supported families are the ROADMAP instance set: "assignment"
// (bipartite assignment markets), "powerlaw" (Chung-Lu social graphs),
// "skew" (adversarial degree skew), plus "gnm" and "clientserver" from the
// generic generators.
type FamilySpec struct {
	Family string `json:"family"`
	Count  int    `json:"count"`
	// N and M size each instance (M is ignored by families that derive
	// their own edge count, e.g. clientserver).
	N int `json:"n"`
	M int `json:"m"`
}

// CorpusItem is one encoded instance: the BMG1 payload the target posts,
// plus identifying metadata for reports.
type CorpusItem struct {
	// Name is "<family>/<i>" — stable across runs.
	Name string
	// Payload is the canonical BMG1 encoding (binary ingest is ~6× faster
	// than text, so the harness always posts binary).
	Payload []byte
	N, M    int
}

// corpusCount sums the instance counts of a corpus declaration.
func corpusCount(fams []FamilySpec) int {
	n := 0
	for _, f := range fams {
		n += f.Count
	}
	return n
}

// BuildCorpus generates the instance corpus for a workload: every family
// spec expands to Count instances drawn from one seeded stream, so a
// (seed, corpus declaration) pair is a complete, replayable corpus. The
// order is the declaration order — Shot.Corpus indexes into it, and the
// Zipf popularity ranks items in this order (earlier = more popular).
func BuildCorpus(seed int64, fams []FamilySpec) ([]CorpusItem, error) {
	r := rng.New(seed)
	var items []CorpusItem
	for _, f := range fams {
		if f.Count <= 0 {
			return nil, fmt.Errorf("loadgen: corpus family %q has count %d", f.Family, f.Count)
		}
		if f.N <= 0 {
			return nil, fmt.Errorf("loadgen: corpus family %q has n = %d", f.Family, f.N)
		}
		for i := 0; i < f.Count; i++ {
			g, b, err := generate(f, r.Split())
			if err != nil {
				return nil, err
			}
			items = append(items, CorpusItem{
				Name:    fmt.Sprintf("%s/%d", f.Family, i),
				Payload: graphio.AppendBinaryTo(nil, g, b),
				N:       g.N,
				M:       g.M(),
			})
		}
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("loadgen: empty corpus declaration")
	}
	return items, nil
}

// generate builds one instance of a family. Families that return no
// budgets get uniform b=2 — enough slack that every algo has work to do.
func generate(f FamilySpec, r *rng.RNG) (*graph.Graph, graph.Budgets, error) {
	m := f.M
	if m <= 0 {
		m = 8 * f.N
	}
	switch f.Family {
	case "assignment":
		// ~1 firm per 8 workers, degree sized so the edge count ≈ m.
		workers := f.N * 7 / 8
		firms := f.N - workers
		if firms < 1 {
			firms = 1
			workers = f.N - 1
		}
		degree := m / workers
		if degree < 1 {
			degree = 1
		}
		g, b := graph.AssignmentMarket(workers, firms, 2*degree, r)
		return g, b, nil
	case "powerlaw":
		g, b := graph.PowerLawSocial(f.N, m, 2.3, r)
		return g, b, nil
	case "skew":
		g, b := graph.AdversarialSkew(f.N, m, r)
		return g, b, nil
	case "gnm":
		g := graph.GnmWeighted(f.N, m, 1, 10, r)
		return g, graph.UniformBudgets(f.N, 2), nil
	case "clientserver":
		g, b := graph.ClientServer(f.N, f.N/20+1, 6, 3, 40, r)
		return g, b, nil
	default:
		return nil, nil, fmt.Errorf("loadgen: unknown corpus family %q (want assignment|powerlaw|skew|gnm|clientserver)", f.Family)
	}
}
