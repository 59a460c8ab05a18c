package engine

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/loadgen"
	"repro/internal/mpc/mpctransport"
	"repro/internal/rng"
)

// famInstance builds the cross-family regression instances for the
// value-mode tests. Construction (family parameters and RNG split order)
// is pinned: the golden checksums below were captured from these exact
// instances before the kernels were made generic over the value type.
func famInstance(fam string, seed int64) (*graph.Graph, graph.Budgets) {
	r := rng.New(seed)
	switch fam {
	case "gnm":
		g := graph.Gnm(600, 6000, r.Split())
		return g, graph.RandomBudgets(g.N, 1, 4, r.Split())
	case "bipartite":
		g := graph.Bipartite(300, 300, 5000, r.Split())
		return g, graph.RandomBudgets(g.N, 1, 4, r.Split())
	case "assignment":
		g, b := graph.AssignmentMarket(500, 70, 20, r.Split())
		return g, b
	case "powerlaw":
		g, b := graph.PowerLawSocial(600, 5000, 2.3, r.Split())
		return g, b
	case "skew":
		g, b := graph.AdversarialSkew(600, 5000, r.Split())
		return g, b
	}
	panic("unknown family " + fam)
}

// fracChecksum folds a fractional solution — X bits, objective, dual
// bound, and the recovered cover — into one FNV-1a word.
func fracChecksum(sol *FracSolution) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(u uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, x := range sol.X {
		w64(math.Float64bits(x))
	}
	w64(math.Float64bits(sol.Value))
	w64(math.Float64bits(sol.DualBound))
	for _, v := range sol.CoverVertices {
		w64(uint64(uint32(v)))
	}
	for _, e := range sol.CoverSlackEdges {
		w64(uint64(uint32(e)))
	}
	return h.Sum64()
}

// TestFracF64GoldenChecksums pins the f64 fractional path bit-for-bit
// against checksums captured before the value-mode genericization: the
// default mode must produce the exact same solutions, objectives, duals,
// and covers it always did, across every instance family.
func TestFracF64GoldenChecksums(t *testing.T) {
	golden := []struct {
		fam  string
		seed int64
		sum  uint64
	}{
		{"gnm", 1, 0xef8c9baf841c98c4},
		{"gnm", 7, 0x3a196d4bfa88a874},
		{"bipartite", 1, 0xbe1b34da89969582},
		{"bipartite", 7, 0x163499f28b1f4465},
		{"assignment", 1, 0xf1ecbca40a9abd24},
		{"assignment", 7, 0xb8a36293de3c7d16},
		{"powerlaw", 1, 0xb3aac1940efc8ead},
		{"powerlaw", 7, 0x41d0f362e339615e},
		{"skew", 1, 0x93cf5757fdc51f14},
		{"skew", 7, 0x31e55c2460f5cfa6},
	}
	ctx := context.Background()
	for _, tc := range golden {
		g, b := famInstance(tc.fam, tc.seed)
		out, err := Solve(ctx, g, b, Spec{Algo: AlgoFrac, Seed: tc.seed, Workers: 3})
		if err != nil {
			t.Fatalf("%s/%d: %v", tc.fam, tc.seed, err)
		}
		if got := fracChecksum(out.Frac); got != tc.sum {
			t.Errorf("%s/%d: checksum 0x%016x, want golden 0x%016x — the f64 path is no longer bit-identical",
				tc.fam, tc.seed, got, tc.sum)
		}
	}
}

// TestFracF32ObjectiveWithinBudget enforces the README error budget: the
// f32 objective stays within 1e-3 relative error of the f64 objective on
// every instance family, and its dual certificate still upper-bounds it.
func TestFracF32ObjectiveWithinBudget(t *testing.T) {
	ctx := context.Background()
	for _, fam := range []string{"gnm", "bipartite", "assignment", "powerlaw", "skew"} {
		for _, seed := range []int64{1, 7} {
			g, b := famInstance(fam, seed)
			f64, err := Solve(ctx, g, b, Spec{Algo: AlgoFrac, Seed: seed, Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			f32, err := Solve(ctx, g, b, Spec{Algo: AlgoFrac, Seed: seed, Workers: 3, ValueMode: "f32"})
			if err != nil {
				t.Fatalf("%s/%d f32: %v", fam, seed, err)
			}
			rel := math.Abs(f32.Frac.Value-f64.Frac.Value) / f64.Frac.Value
			if rel > 1e-3 {
				t.Errorf("%s/%d: relative objective error %g exceeds 1e-3 (f64 %g, f32 %g)",
					fam, seed, rel, f64.Frac.Value, f32.Frac.Value)
			}
			if f32.Frac.Value > f32.Frac.DualBound {
				t.Errorf("%s/%d: f32 value %g exceeds its dual bound %g", fam, seed, f32.Frac.Value, f32.Frac.DualBound)
			}
		}
	}
}

// TestValueModeSplitsResultCache: an f32 solve must neither serve from nor
// overwrite the f64 cache entry for the same instance and spec.
func TestValueModeSplitsResultCache(t *testing.T) {
	s := NewSession(nil)
	g, b := famInstance("gnm", 1)
	inst, err := s.InstanceFromGraph(g, b)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	spec64 := Spec{Algo: AlgoFrac, Seed: 1}
	spec32 := Spec{Algo: AlgoFrac, Seed: 1, ValueMode: "f32"}

	first64, err := s.Solve(ctx, inst, spec64)
	if err != nil {
		t.Fatal(err)
	}
	if first64.FromCache {
		t.Fatal("first f64 solve claims a cache hit")
	}
	first32, err := s.Solve(ctx, inst, spec32)
	if err != nil {
		t.Fatal(err)
	}
	if first32.FromCache {
		t.Fatal("f32 solve served from the f64 cache entry")
	}
	again64, err := s.Solve(ctx, inst, spec64)
	if err != nil {
		t.Fatal(err)
	}
	again32, err := s.Solve(ctx, inst, spec32)
	if err != nil {
		t.Fatal(err)
	}
	if !again64.FromCache || !again32.FromCache {
		t.Fatalf("repeat solves missed the cache (f64 hit=%v, f32 hit=%v)", again64.FromCache, again32.FromCache)
	}
	for e := range again64.X {
		if again64.X[e] != first64.X[e] {
			t.Fatal("f32 solve overwrote the cached f64 solution")
		}
	}
	// Explicit "f64" and the empty default must share one entry.
	explicit, err := s.Solve(ctx, inst, Spec{Algo: AlgoFrac, Seed: 1, ValueMode: "f64"})
	if err != nil {
		t.Fatal(err)
	}
	if !explicit.FromCache {
		t.Error(`ValueMode "f64" missed the cache entry stored under the "" default`)
	}
}

// TestValueModeValidation pins the request-boundary contract: unknown
// spellings are rejected, and f32 applies to the fractional solver only.
func TestValueModeValidation(t *testing.T) {
	if err := (Spec{Algo: AlgoFrac, ValueMode: "f16"}).Validate(); err == nil {
		t.Error("unknown value mode accepted")
	}
	for _, algo := range []Algo{AlgoApprox, AlgoMax, AlgoMaxWeight, AlgoGreedy} {
		if err := (Spec{Algo: algo, ValueMode: "f32"}).Validate(); err == nil {
			t.Errorf("%s accepted value mode f32; only frac supports it", algo)
		}
		if err := (Spec{Algo: algo, ValueMode: "f64"}).Validate(); err != nil {
			t.Errorf("%s rejected explicit f64: %v", algo, err)
		}
	}
}

// TestFracF32BitIdenticalAcrossWorkersAndTransports is the f32 mirror of
// the f64 determinism contract: the same spec must produce bit-identical
// solutions for every worker count and with the MPC supersteps shipped
// over loopback TCP instead of the in-process pipeline.
func TestFracF32BitIdenticalAcrossWorkersAndTransports(t *testing.T) {
	g, b := famInstance("gnm", 7)
	ctx := context.Background()
	base := Spec{Algo: AlgoFrac, Seed: 7, Workers: 1, ValueMode: "f32"}
	want, err := Solve(ctx, g, b, base)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{2, 4} {
		spec := base
		spec.Workers = workers
		got, err := Solve(ctx, g, b, spec)
		if err != nil {
			t.Fatal(err)
		}
		for e := range want.Frac.X {
			if math.Float64bits(got.Frac.X[e]) != math.Float64bits(want.Frac.X[e]) {
				t.Fatalf("workers=%d: f32 x[%d] = %v differs from serial %v", workers, e, got.Frac.X[e], want.Frac.X[e])
			}
		}
	}

	addrs := make([]string, 2)
	for i := range addrs {
		w, err := mpctransport.Listen("127.0.0.1:0", mpctransport.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		go w.Serve()
		t.Cleanup(func() { w.Close() })
		addrs[i] = w.Addr().String()
	}
	p := NewPool(PoolConfig{Workers: 1, MPCTransport: mpctransport.NewDialer(addrs...)})
	defer p.Close()
	inst, err := NewSession(p.Cache()).InstanceFromGraph(g, b)
	if err != nil {
		t.Fatal(err)
	}
	spec := base
	spec.Workers = 2
	got, err := p.Submit(ctx, inst, spec)
	if err != nil {
		t.Fatal(err)
	}
	for e := range want.Frac.X {
		if math.Float64bits(got.X[e]) != math.Float64bits(want.Frac.X[e]) {
			t.Fatalf("tcp: f32 x[%d] = %v differs from in-process %v", e, got.X[e], want.Frac.X[e])
		}
	}
}

// maxGoldenFamilies are the small instances TestMaxGoldenChecksums solves:
// one per family, drawn per seed from loadgen's corpus builder.
var maxGoldenFamilies = []loadgen.FamilySpec{
	{Family: "assignment", Count: 1, N: 16, M: 40},
	{Family: "skew", Count: 1, N: 12, M: 24},
	{Family: "gnm", Count: 1, N: 16, M: 40},
	{Family: "powerlaw", Count: 1, N: 20, M: 48},
}

// TestMaxGoldenChecksums pins the matchings max and maxw serve bit for
// bit, for workers 1 and 4: an FNV-1a hash of Result.Edges per (family,
// seed, algo). A change that only stops the drivers earlier, or makes
// their instances cheaper, must leave every entry unchanged.
func TestMaxGoldenChecksums(t *testing.T) {
	golden := map[string]uint64{
		"assignment/0/1/max":  0x641d0eaacf474385,
		"assignment/0/1/maxw": 0x47c3f8d7c0d35846,
		"skew/0/1/max":        0x8bf425edcdbba6a1,
		"skew/0/1/maxw":       0x5a0b8dab34bee773,
		"gnm/0/1/max":         0xacffb1628ea6bc07,
		"gnm/0/1/maxw":        0xdca3b8a13a371fb1,
		"powerlaw/0/1/max":    0x9cfae3ba76348595,
		"powerlaw/0/1/maxw":   0xc3941b1b450b0d4c,
		"assignment/0/2/max":  0x850bcb7f01812a13,
		"assignment/0/2/maxw": 0x21719972e3c42f30,
		"skew/0/2/max":        0x9b33719d19dc3f21,
		"skew/0/2/maxw":       0xeee7129cf634ec95,
		"gnm/0/2/max":         0xeab9304b8c483c2a,
		"gnm/0/2/maxw":        0xc5348b6256285a61,
		"powerlaw/0/2/max":    0x8e2507c28e0d5eb8,
		"powerlaw/0/2/maxw":   0x414998a61dc53a0d,
		"assignment/0/3/max":  0xb63176e3ce841bcf,
		"assignment/0/3/maxw": 0x97f4bc640b8523cf,
		"skew/0/3/max":        0xe3ff947ef642d73d,
		"skew/0/3/maxw":       0x699226fff372b981,
		"gnm/0/3/max":         0x604a8b2a28a876b8,
		"gnm/0/3/maxw":        0x51d519499c7a9276,
		"powerlaw/0/3/max":    0x7fc5c87b4da18ef0,
		"powerlaw/0/3/maxw":   0xf70efe68562ed133,
	}
	ctx := context.Background()
	s := NewSession(nil)
	for _, seed := range []int64{1, 2, 3} {
		items, err := loadgen.BuildCorpus(seed, maxGoldenFamilies)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range items {
			inst, err := s.Instance(it.Payload)
			if err != nil {
				t.Fatal(err)
			}
			for _, algo := range []Algo{AlgoMax, AlgoMaxWeight} {
				key := fmt.Sprintf("%s/%d/%s", it.Name, seed, algo)
				for _, workers := range []int{1, 4} {
					res, err := s.Solve(ctx, inst, Spec{Algo: algo, Seed: seed, Workers: workers, NoCache: true})
					if err != nil {
						t.Fatalf("%s workers=%d: %v", key, workers, err)
					}
					h := fnv.New64a()
					for _, e := range res.Edges {
						h.Write([]byte{byte(e), byte(e >> 8), byte(e >> 16), byte(e >> 24)})
					}
					if got := h.Sum64(); got != golden[key] {
						t.Errorf("%s workers=%d: checksum 0x%016x, want golden 0x%016x — the served matching changed",
							key, workers, got, golden[key])
					}
				}
			}
		}
	}
}
