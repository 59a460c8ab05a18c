package loadgen

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func testSpec() Spec {
	return Spec{
		Seed:        42,
		Requests:    4000,
		Rate:        1000,
		CorpusSize:  12,
		ZipfS:       1.1,
		SeedStreams: 3,
		Mix: []MixEntry{
			{Algo: "maxw", Weight: 0.5},
			{Algo: "greedy", Weight: 0.3},
			{Algo: "approx", Eps: 0.25, Weight: 0.1},
			{Algo: "maxw", Async: true, Weight: 0.1},
		},
		CancelProb:  0.05,
		TimeoutProb: 0.05,
	}
}

// TestScheduleDeterministic pins the harness's core contract: a Spec is a
// complete description of the offered load — same seed, same schedule,
// byte for byte; a different seed diverges.
func TestScheduleDeterministic(t *testing.T) {
	spec := testSpec()
	a, err := BuildSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same spec produced different schedules")
	}
	spec.Seed++
	c, err := BuildSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestScheduleShape checks the statistical contract of a built schedule:
// arrival times are sorted and average to 1/Rate gaps, the mix lands near
// its declared weights, Zipf popularity concentrates on low indices, and
// request seeds stay inside the stream count.
func TestScheduleShape(t *testing.T) {
	spec := testSpec()
	shots, err := BuildSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(shots) != spec.Requests {
		t.Fatalf("got %d shots, want %d", len(shots), spec.Requests)
	}

	mixCount := map[string]int{}
	corpusCount := make([]int, spec.CorpusSize)
	for i, s := range shots {
		if i > 0 && s.At < shots[i-1].At {
			t.Fatalf("shot %d arrives before its predecessor", i)
		}
		if s.Corpus < 0 || s.Corpus >= spec.CorpusSize {
			t.Fatalf("shot %d corpus index %d outside [0,%d)", i, s.Corpus, spec.CorpusSize)
		}
		if s.Seed < 0 || s.Seed >= int64(spec.SeedStreams) {
			t.Fatalf("shot %d seed %d outside [0,%d)", i, s.Seed, spec.SeedStreams)
		}
		key := s.Algo
		if s.Async {
			key += ":async"
		}
		mixCount[key]++
		corpusCount[s.Corpus]++
	}

	// Offered duration ≈ Requests/Rate (law of large numbers at n=4000;
	// 15% slack keeps this deterministic-by-seed test robust).
	wantSec := float64(spec.Requests) / spec.Rate
	gotSec := shots[len(shots)-1].At.Seconds()
	if gotSec < wantSec*0.85 || gotSec > wantSec*1.15 {
		t.Fatalf("offered duration %.2fs, want ≈ %.2fs", gotSec, wantSec)
	}

	// Mix frequencies within 20% relative of their weights.
	want := map[string]float64{"maxw": 0.5, "greedy": 0.3, "approx": 0.1, "maxw:async": 0.1}
	for key, w := range want {
		frac := float64(mixCount[key]) / float64(spec.Requests)
		if frac < w*0.8 || frac > w*1.2 {
			t.Fatalf("mix cell %s: frequency %.3f, want ≈ %.2f", key, frac, w)
		}
	}

	// Zipf skew: the most popular instance is index 0 and holds well more
	// than the uniform share.
	for i := 1; i < spec.CorpusSize; i++ {
		if corpusCount[i] > corpusCount[0] {
			t.Fatalf("corpus %d more popular than corpus 0 (%d > %d) — Zipf rank broken",
				i, corpusCount[i], corpusCount[0])
		}
	}
	uniform := float64(spec.Requests) / float64(spec.CorpusSize)
	if float64(corpusCount[0]) < 2*uniform {
		t.Fatalf("corpus 0 drew %d requests, want ≥ 2× uniform share %.0f", corpusCount[0], uniform)
	}
}

// TestScheduleFaultInjection checks injected faults land near their
// probabilities and obey the path rules: deadlines only on synchronous,
// non-canceled shots.
func TestScheduleFaultInjection(t *testing.T) {
	spec := testSpec()
	spec.CancelProb, spec.TimeoutProb = 0.10, 0.10
	shots, err := BuildSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	cancels, timeouts := 0, 0
	for i, s := range shots {
		if s.Cancel {
			cancels++
			if s.CancelAfter <= 0 {
				t.Fatalf("shot %d: cancel without CancelAfter", i)
			}
		}
		if s.Timeout > 0 {
			timeouts++
			if s.Async {
				t.Fatalf("shot %d: injected deadline on an async shot", i)
			}
			if s.Cancel {
				t.Fatalf("shot %d: both cancel and deadline injected", i)
			}
		}
	}
	n := float64(spec.Requests)
	if f := float64(cancels) / n; f < 0.07 || f > 0.13 {
		t.Fatalf("cancel fraction %.3f, want ≈ 0.10", f)
	}
	// Timeouts are drawn on the non-cancel sync ~81% of shots, so the
	// overall fraction is ≈ 0.9·0.9·0.10 ≈ 0.081.
	if f := float64(timeouts) / n; f < 0.05 || f > 0.11 {
		t.Fatalf("timeout fraction %.3f, want ≈ 0.08", f)
	}

	// Zero probabilities inject nothing.
	spec.CancelProb, spec.TimeoutProb = 0, 0
	shots, err = BuildSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range shots {
		if s.Cancel || s.Timeout > 0 {
			t.Fatalf("shot %d carries an injected fault at probability 0", i)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	base := testSpec()
	cases := []struct {
		name   string
		mutate func(*Spec)
		bad    string
	}{
		{"ok", func(s *Spec) {}, ""},
		{"requests", func(s *Spec) { s.Requests = 0 }, "Requests"},
		{"rate", func(s *Spec) { s.Rate = -1 }, "Rate"},
		{"rateNaN", func(s *Spec) { s.Rate = math.NaN() }, "Rate"},
		{"corpus", func(s *Spec) { s.CorpusSize = 0 }, "CorpusSize"},
		{"zipf", func(s *Spec) { s.ZipfS = -0.5 }, "ZipfS"},
		{"cancelProb", func(s *Spec) { s.CancelProb = 1.5 }, "CancelProb"},
		{"timeoutProb", func(s *Spec) { s.TimeoutProb = -0.1 }, "TimeoutProb"},
		{"mixWeight", func(s *Spec) { s.Mix[0].Weight = 0 }, "weight"},
		{"mixAlgo", func(s *Spec) { s.Mix[0].Algo = "" }, "algo"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := base
			spec.Mix = append([]MixEntry(nil), base.Mix...)
			tc.mutate(&spec)
			err := spec.Validate()
			if tc.bad == "" {
				if err != nil {
					t.Fatalf("valid spec rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("invalid spec accepted")
			}
			if !strings.Contains(err.Error(), tc.bad) {
				t.Fatalf("error %q does not name %q", err, tc.bad)
			}
		})
	}
}

// TestHistogramQuantiles checks the HDR-style histogram holds its declared
// ~1.6% relative resolution on a known sample set.
func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	const n = 10000
	for i := 1; i <= n; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	if h.total != n {
		t.Fatalf("count %d, want %d", h.total, n)
	}
	if h.Quantile(0) != time.Microsecond || h.Max() != n*time.Microsecond {
		t.Fatalf("min/max %v/%v, want 1µs/%dµs", h.Quantile(0), h.Max(), n)
	}
	for _, q := range []float64{0.10, 0.50, 0.95, 0.99} {
		exact := q * n * float64(time.Microsecond)
		got := float64(h.Quantile(q))
		if rel := math.Abs(got-exact) / exact; rel > 0.02 {
			t.Fatalf("q%.2f = %v, want %v ± 2%% (rel err %.3f)", q, time.Duration(got), time.Duration(exact), rel)
		}
	}
}

// scriptedTarget replays programmed outcomes keyed by shot index and
// mimics a target honoring injected cancels: a canceled context wins over
// the scripted outcome, exactly as a real transport would observe.
type scriptedTarget struct {
	outcomes func(s Shot) Outcome
	delay    time.Duration
}

func (t *scriptedTarget) Do(ctx context.Context, s Shot) Outcome {
	if t.delay > 0 {
		timer := time.NewTimer(t.delay)
		defer timer.Stop()
		select {
		case <-ctx.Done():
			return Outcome{Class: ClassCanceled, Err: ctx.Err().Error()}
		case <-timer.C:
		}
	}
	return t.outcomes(s)
}

// TestRunOutcomeAccounting drives the open-loop driver against a scripted
// target and checks the report's ledger: injected faults that land as
// asked are not errors, everything else is.
func TestRunOutcomeAccounting(t *testing.T) {
	spec := testSpec()
	spec.Requests, spec.Rate = 400, 20000
	spec.CancelProb, spec.TimeoutProb = 0, 0
	shots, err := BuildSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Script: every 10th shot is a 429 rejection (unexpected), every 7th a
	// cache hit; the rest are plain OKs.
	target := &scriptedTarget{outcomes: func(s Shot) Outcome {
		switch {
		case s.Index%10 == 9:
			return Outcome{Class: ClassRejected, Status: 429}
		case s.Index%7 == 0:
			return Outcome{Class: ClassOK, Status: 200, CacheHit: true}
		default:
			return Outcome{Class: ClassOK, Status: 200}
		}
	}}
	rep := Run(context.Background(), target, shots, RunConfig{})

	wantRejected := int64(spec.Requests / 10)
	if rep.Classes[ClassRejected] != wantRejected {
		t.Fatalf("rejected %d, want %d", rep.Classes[ClassRejected], wantRejected)
	}
	if rep.Unexpected != wantRejected {
		t.Fatalf("unexpected %d, want %d (rejections are never asked for)", rep.Unexpected, wantRejected)
	}
	wantErrRate := float64(wantRejected) / float64(spec.Requests)
	if math.Abs(rep.ErrorRate-wantErrRate) > 1e-9 {
		t.Fatalf("error rate %v, want %v", rep.ErrorRate, wantErrRate)
	}
	if rep.OK != int64(spec.Requests)-wantRejected {
		t.Fatalf("ok %d, want %d", rep.OK, int64(spec.Requests)-wantRejected)
	}
	if rep.CacheHitRate <= 0 {
		t.Fatal("cache hits not accounted")
	}
	if rep.MixOK["maxw"] == 0 || rep.MixOK["maxw:async"] == 0 {
		t.Fatalf("mix ledger missing cells: %v", rep.MixOK)
	}
	var sum int64
	for _, n := range rep.Classes {
		sum += n
	}
	if sum != int64(spec.Requests) {
		t.Fatalf("class ledger sums to %d, want %d", sum, spec.Requests)
	}
}

// TestRunInjectedCancels checks the driver arms injected cancels through
// the shot context and books the resulting canceled outcomes as expected
// faults, not errors.
func TestRunInjectedCancels(t *testing.T) {
	spec := testSpec()
	spec.Requests, spec.Rate = 120, 20000
	spec.CancelProb, spec.CancelAfter = 1.0, time.Millisecond
	spec.TimeoutProb = 0
	shots, err := BuildSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The target takes far longer than CancelAfter, so every shot's context
	// dies first.
	target := &scriptedTarget{
		delay:    200 * time.Millisecond,
		outcomes: func(s Shot) Outcome { return Outcome{Class: ClassOK, Status: 200} },
	}
	rep := Run(context.Background(), target, shots, RunConfig{})
	if rep.Classes[ClassCanceled] != int64(spec.Requests) {
		t.Fatalf("canceled %d, want all %d", rep.Classes[ClassCanceled], spec.Requests)
	}
	if rep.InjectedFaults != int64(spec.Requests) {
		t.Fatalf("injected faults %d, want %d", rep.InjectedFaults, spec.Requests)
	}
	if rep.ErrorRate != 0 {
		t.Fatalf("error rate %v, want 0 — injected cancels are not errors", rep.ErrorRate)
	}
}

// TestRunInFlightShedding checks the open-loop cap: arrivals past
// MaxInFlight are shed and recorded, never delayed.
func TestRunInFlightShedding(t *testing.T) {
	spec := testSpec()
	spec.Requests, spec.Rate = 60, 50000
	spec.CancelProb, spec.TimeoutProb = 0, 0
	shots, err := BuildSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	target := &scriptedTarget{
		delay:    50 * time.Millisecond,
		outcomes: func(s Shot) Outcome { return Outcome{Class: ClassOK, Status: 200} },
	}
	rep := Run(context.Background(), target, shots, RunConfig{MaxInFlight: 8})
	if rep.Classes[ClassUnavailable] == 0 {
		t.Fatal("no arrivals shed at MaxInFlight=8 against a 50ms target at 50k/s")
	}
	if rep.OK == 0 {
		t.Fatal("no shots completed")
	}
	if got := rep.OK + rep.Classes[ClassUnavailable]; got != int64(spec.Requests) {
		t.Fatalf("ok + shed = %d, want %d", got, spec.Requests)
	}
}

// TestSLOEvaluate is the evaluator's pass/fail table.
func TestSLOEvaluate(t *testing.T) {
	zero := 0.0
	rep := &Report{
		Requests:     100,
		OK:           95,
		ErrorRate:    0.02,
		CacheHitRate: 0.40,
		GoodputRate:  180,
		LatencyMs:    LatencySummary{P50: 4, P95: 18, P99: 42, Max: 60},
	}
	cases := []struct {
		name    string
		slo     SLO
		violate []string
	}{
		{"empty SLO checks nothing", SLO{}, nil},
		{"all pass", SLO{MaxP50Ms: 10, MaxP95Ms: 50, MaxP99Ms: 100, MinCacheHitRate: 0.2, MinGoodputRate: 100, MinOKFraction: 0.9}, nil},
		{"p50 blown", SLO{MaxP50Ms: 3}, []string{"latency.p50Ms"}},
		{"p95 and p99 blown", SLO{MaxP95Ms: 10, MaxP99Ms: 20}, []string{"latency.p95Ms", "latency.p99Ms"}},
		{"error rate pointer", SLO{MaxErrorRate: &zero}, []string{"errorRate"}},
		{"cache floor", SLO{MinCacheHitRate: 0.5}, []string{"cacheHitRate"}},
		{"goodput floor", SLO{MinGoodputRate: 200}, []string{"goodputRate"}},
		{"ok fraction floor", SLO{MinOKFraction: 0.99}, []string{"okFraction"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.slo.Evaluate(rep)
			if len(got) != len(tc.violate) {
				t.Fatalf("got %d violations %v, want %d", len(got), got, len(tc.violate))
			}
			for i, v := range got {
				if v.Metric != tc.violate[i] {
					t.Fatalf("violation %d is %q, want %q", i, v.Metric, tc.violate[i])
				}
			}
		})
	}
}

// TestReportFileTrajectorySuperset pins the benchjson compatibility
// contract: a loadgen report carries every top-level key of the
// cmd/benchjson trajectory file, with the latency percentiles as results
// entries in benchjson's {name, iterations, nsPerOp} shape.
func TestReportFileTrajectorySuperset(t *testing.T) {
	spec := testSpec()
	rep := &Report{OK: 10, LatencyMs: LatencySummary{P50: 2, P95: 8, P99: 9.5}}
	file := NewReportFile("test", spec, rep, &SLO{MaxP99Ms: 100}, nil)
	enc, err := json.Marshal(file)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(enc, &top); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"goVersion", "goos", "goarch", "timestamp", "bench", "benchtime", "results"} {
		if _, ok := top[key]; !ok {
			t.Fatalf("report file missing benchjson trajectory key %q", key)
		}
	}
	var results []struct {
		Name       string  `json:"name"`
		Iterations int64   `json:"iterations"`
		NsPerOp    float64 `json:"nsPerOp"`
	}
	if err := json.Unmarshal(top["results"], &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results entries, want 3 percentiles", len(results))
	}
	if results[0].Name != "Loadgen/latency/p50" || results[0].NsPerOp != 2e6 {
		t.Fatalf("p50 entry wrong: %+v", results[0])
	}
}

// TestLoadBaseline round-trips a baseline file and checks CorpusSize is
// defaulted from the corpus declaration.
func TestLoadBaseline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	body := `{
	  "label": "smoke",
	  "corpus": [
	    {"family": "assignment", "count": 2, "n": 256, "m": 1500},
	    {"family": "skew", "count": 1, "n": 300, "m": 2000}
	  ],
	  "workload": {
	    "seed": 7, "requests": 50, "rate": 100, "zipfS": 1.0,
	    "mix": [{"algo": "maxw", "weight": 1}]
	  },
	  "slo": {"maxP99Ms": 500, "maxErrorRate": 0}
	}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Workload.CorpusSize != 3 {
		t.Fatalf("CorpusSize %d, want 3 (defaulted from corpus counts)", b.Workload.CorpusSize)
	}
	if b.SLO.MaxErrorRate == nil || *b.SLO.MaxErrorRate != 0 {
		t.Fatal("explicit zero MaxErrorRate lost in decoding")
	}
	if _, err := BuildCorpus(b.Workload.Seed, b.Corpus); err != nil {
		t.Fatalf("declared corpus does not build: %v", err)
	}

	if _, err := LoadBaseline(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing baseline accepted")
	}
}

// TestBuildCorpusDeterministic checks corpora are pure functions of
// (seed, declaration) and every payload is a valid non-empty instance.
func TestBuildCorpusDeterministic(t *testing.T) {
	fams := []FamilySpec{
		{Family: "assignment", Count: 2, N: 240, M: 1400},
		{Family: "powerlaw", Count: 2, N: 300, M: 2400},
		{Family: "skew", Count: 1, N: 300, M: 2400},
		{Family: "gnm", Count: 1, N: 200, M: 1200},
	}
	a, err := BuildCorpus(11, fams)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildCorpus(11, fams)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 6 {
		t.Fatalf("got %d items, want 6", len(a))
	}
	for i := range a {
		if a[i].Name != b[i].Name || string(a[i].Payload) != string(b[i].Payload) {
			t.Fatalf("corpus item %d differs across same-seed builds", i)
		}
		if len(a[i].Payload) == 0 || a[i].N == 0 {
			t.Fatalf("corpus item %d (%s) is empty", i, a[i].Name)
		}
	}
	c, err := BuildCorpus(12, fams)
	if err != nil {
		t.Fatal(err)
	}
	if string(a[0].Payload) == string(c[0].Payload) {
		t.Fatal("different seeds produced an identical first instance")
	}

	if _, err := BuildCorpus(1, []FamilySpec{{Family: "nope", Count: 1, N: 10}}); err == nil {
		t.Fatal("unknown family accepted")
	}
}
