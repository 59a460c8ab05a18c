package loadgen

import (
	"math"
	"reflect"
	"strings"
	"testing"
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
			{Algo: "approx", Weight: 0.1},
			{Algo: "maxw", Async: true, Weight: 0.1},
		},
		CancelProb:  0.05,
		TimeoutProb: 0.05,
	}
}

// TestScheduleDeterministic pins the package's core contract: a Spec is a
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
