// Package loadgen builds the inputs of an open-loop serving workload: the
// instance corpus (BuildCorpus) and the request schedule (BuildSchedule:
// Poisson arrivals, Zipf instance popularity, weighted request mixes,
// cancel and timeout injection). It sends nothing. perfbench's serving
// workloads and the replay of BENCH_LOADGEN.json in internal/httpapi's
// tests post what it builds.
//
// Both builders are pure functions of their seed: BuildSchedule derives
// every arrival offset, corpus pick, algo/seed pair and injected fault
// before a run starts, so two runs of one Spec offer byte-identical load
// and differ only in observed latencies.
package loadgen

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/rng"
)

// MixEntry is one cell of the request mix: a solver configuration plus its
// relative probability mass in the workload.
type MixEntry struct {
	// Algo is the engine algorithm name (approx|max|maxw|greedy|frac).
	Algo string `json:"algo"`
	// Async routes this cell through the /v2/jobs lifecycle
	// (submit → poll → fetch) instead of the synchronous /v1/solve.
	Async bool `json:"async,omitempty"`
	// Weight is the cell's relative probability (> 0).
	Weight float64 `json:"weight"`
}

// Spec declares a workload. All randomness derives from Seed, so a Spec is
// a complete, replayable description of the offered load.
type Spec struct {
	// Seed drives every draw: arrivals, corpus picks, mix picks, request
	// seeds, and fault injection.
	Seed int64 `json:"seed"`
	// Requests is the total number of requests to offer.
	Requests int `json:"requests"`
	// Rate is the target arrival rate in requests/second. Arrivals are a
	// Poisson process of this intensity (exponential inter-arrival gaps),
	// the standard open-loop model of independent users.
	Rate float64 `json:"rate"`
	// CorpusSize is the number of instances in the corpus the schedule
	// indexes into (Shot.Corpus ∈ [0, CorpusSize)).
	CorpusSize int `json:"corpusSize"`
	// ZipfS is the popularity skew across the corpus: instance i is drawn
	// with probability ∝ 1/(i+1)^ZipfS. 0 is uniform; ~1 is web-like skew
	// that concentrates load on a few hot instances and exercises the
	// instance/result caches.
	ZipfS float64 `json:"zipfS"`
	// SeedStreams is how many distinct request seeds the workload cycles
	// through (drawn per request). Together with ZipfS it controls the
	// result-cache hit rate: fewer streams × more skew → more exact
	// (instance, algo, seed) repeats. 0 defaults to 4.
	SeedStreams int `json:"seedStreams"`
	// Mix is the request mix. Empty defaults to 100% maxw.
	Mix []MixEntry `json:"mix"`
	// CancelProb is the probability a request is abandoned client-side
	// after CancelAfter (the injected-cancel path: the server observes the
	// context cancel and frees the worker mid-solve).
	CancelProb float64 `json:"cancelProb,omitempty"`
	// CancelAfter is when injected cancels fire (default 5ms).
	CancelAfter time.Duration `json:"cancelAfterNs,omitempty"`
	// TimeoutProb is the probability a synchronous request carries the
	// injected Timeout as its timeout_ms deadline (the 504 path). Async
	// cells never draw it: /v2/jobs rejects timeout_ms by design.
	TimeoutProb float64 `json:"timeoutProb,omitempty"`
	// Timeout is the injected deadline (default 1ms — short enough that a
	// real solve trips it deterministically enough for smoke tests).
	Timeout time.Duration `json:"timeoutNs,omitempty"`
}

// Validate rejects specs the schedule builder cannot honor.
func (s Spec) Validate() error {
	if s.Requests <= 0 {
		return fmt.Errorf("loadgen: Requests = %d, need > 0", s.Requests)
	}
	if s.Rate <= 0 || math.IsNaN(s.Rate) || math.IsInf(s.Rate, 0) {
		return fmt.Errorf("loadgen: Rate = %v, need a positive finite rate", s.Rate)
	}
	if s.CorpusSize <= 0 {
		return fmt.Errorf("loadgen: CorpusSize = %d, need > 0", s.CorpusSize)
	}
	if s.ZipfS < 0 || math.IsNaN(s.ZipfS) || math.IsInf(s.ZipfS, 0) {
		return fmt.Errorf("loadgen: ZipfS = %v, need a finite skew ≥ 0", s.ZipfS)
	}
	if s.SeedStreams < 0 {
		return fmt.Errorf("loadgen: SeedStreams = %d, need ≥ 0", s.SeedStreams)
	}
	for i, p := range []float64{s.CancelProb, s.TimeoutProb} {
		if p < 0 || p > 1 || math.IsNaN(p) {
			which := [...]string{"CancelProb", "TimeoutProb"}[i]
			return fmt.Errorf("loadgen: %s = %v outside [0,1]", which, p)
		}
	}
	var mass float64
	for i, e := range s.Mix {
		if e.Weight <= 0 || math.IsNaN(e.Weight) || math.IsInf(e.Weight, 0) {
			return fmt.Errorf("loadgen: Mix[%d] (%s) weight %v, need > 0", i, e.Algo, e.Weight)
		}
		if e.Algo == "" {
			return fmt.Errorf("loadgen: Mix[%d] has no algo", i)
		}
		mass += e.Weight
	}
	if len(s.Mix) > 0 && mass <= 0 {
		return fmt.Errorf("loadgen: mix has no probability mass")
	}
	return nil
}

// Shot is one scheduled request: everything a replay needs to fire it,
// fixed before the run starts.
type Shot struct {
	// At is the arrival offset from the start of the run.
	At time.Duration
	// Corpus indexes the instance to post.
	Corpus int
	// Algo and Seed are the solve parameters.
	Algo string
	Seed int64
	// Async routes the shot through the /v2/jobs lifecycle.
	Async bool
	// Cancel marks an injected client-side abandon after CancelAfter.
	Cancel      bool
	CancelAfter time.Duration
	// Timeout, when > 0, is the injected server-side deadline
	// (timeout_ms); the expected outcome is a 504.
	Timeout time.Duration
}

// defaultMix is the mix used when Spec.Mix is empty.
var defaultMix = []MixEntry{{Algo: "maxw", Weight: 1}}

// BuildSchedule expands a Spec into its full shot sequence. The result is
// a pure function of the Spec (one rng.New(Seed) stream drawn in a fixed
// order), sorted by arrival time — identical across runs, hosts, and
// worker counts.
func BuildSchedule(spec Spec) ([]Shot, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	mix := spec.Mix
	if len(mix) == 0 {
		mix = defaultMix
	}
	cancelAfter := spec.CancelAfter
	if cancelAfter <= 0 {
		cancelAfter = 5 * time.Millisecond
	}
	timeout := spec.Timeout
	if timeout <= 0 {
		timeout = time.Millisecond
	}
	seedStreams := spec.SeedStreams
	if seedStreams <= 0 {
		seedStreams = 4
	}

	mixCum := make([]float64, len(mix))
	acc := 0.0
	for i, e := range mix {
		acc += e.Weight
		mixCum[i] = acc
	}
	pop := newZipf(spec.CorpusSize, spec.ZipfS)

	r := rng.New(spec.Seed)
	shots := make([]Shot, spec.Requests)
	at := time.Duration(0)
	for i := range shots {
		// Poisson arrivals: a unit-rate exponential gap per shot, divided
		// by Rate.
		e := -math.Log(1 - r.Float64())
		at += time.Duration(e / spec.Rate * float64(time.Second))

		mi := sort.SearchFloat64s(mixCum, r.Uniform(0, acc))
		if mi == len(mix) {
			mi = len(mix) - 1
		}
		cell := mix[mi]
		s := Shot{
			At:     at,
			Corpus: pop.pick(r),
			Algo:   cell.Algo,
			Seed:   int64(r.Intn(seedStreams)),
			Async:  cell.Async,
		}
		// Fault injection: each shot draws both coins in a fixed order so
		// the stream stays aligned whatever the outcomes. Cancels apply to
		// both paths (async cancels via DELETE); injected deadlines only to
		// sync shots.
		cancelDraw, timeoutDraw := r.Float64(), r.Float64()
		if cancelDraw < spec.CancelProb {
			s.Cancel = true
			s.CancelAfter = cancelAfter
		}
		if !s.Async && !s.Cancel && timeoutDraw < spec.TimeoutProb {
			s.Timeout = timeout
		}
		shots[i] = s
	}
	return shots, nil
}

// zipf draws corpus indices with probability ∝ 1/(i+1)^s via its
// precomputed CDF. Corpus sizes are small (tens to hundreds), so the CDF
// table plus a binary search per draw beats the rejection samplers used
// for unbounded ranges, and is trivially deterministic.
type zipf struct {
	cum []float64
	tot float64
}

func newZipf(n int, s float64) *zipf {
	z := &zipf{cum: make([]float64, n)}
	acc := 0.0
	for i := 0; i < n; i++ {
		acc += math.Pow(float64(i+1), -s)
		z.cum[i] = acc
	}
	z.tot = acc
	return z
}

func (z *zipf) pick(r *rng.RNG) int {
	x := r.Uniform(0, z.tot)
	i := sort.SearchFloat64s(z.cum, x)
	if i == len(z.cum) {
		i = len(z.cum) - 1
	}
	return i
}
