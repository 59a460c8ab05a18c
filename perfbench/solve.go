package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"time"

	bmatch "repro"
	"repro/internal/augment"
	"repro/internal/baseline"
	"repro/internal/engine"
	"repro/internal/exact"
	"repro/internal/frac"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/loadgen"
	"repro/internal/matching"
	"repro/internal/rng"
	"repro/internal/round"
	"repro/internal/weighted"
)

// The solve workload's instances.
//
// greedy, approx and frac each solve one large instance per family: 2×10^5
// edges is several times the per-core L2, so the kernels run from memory as
// they do at scale, and at 12000 vertices FullMPC runs real compression
// steps instead of going straight to its sequential finish.
//
// max and maxw solve a set of tiny instances. Both drivers escalate their
// retry budget until several sweeps find nothing, and an improvement found
// late restarts the escalation, so a solve costs one or more escalations.
// On instances past about 20 vertices that count is heavy-tailed across
// seeds (per-solve time CV 0.3 to 0.5), and a handful of them never gives a
// steady sum. On these a solve is one escalation (CV 0.03 on assignment,
// about 0.18 on skew, so skew is the minority): thousands of layered
// instances built, grown and resolved, which is where the drivers' time
// goes at any size.
//
// requestSpecs is serve-cold's instance shape at an eighth of its corpus:
// the request-sized solves behind the workload's ok_share and CPU metrics.
// They are the solver's share of a serve-cold request without the serving
// layers, so serve-cold's cpu_ms_per_req less this one is the serving cost.
var (
	largeSpecs = []loadgen.FamilySpec{
		{Family: "assignment", Count: 1, N: 12000, M: 200000},
		{Family: "powerlaw", Count: 1, N: 12000, M: 200000},
		{Family: "skew", Count: 1, N: 12000, M: 200000},
	}
	smallSpecs = []loadgen.FamilySpec{
		{Family: "assignment", Count: 10, N: 16, M: 40},
		{Family: "skew", Count: 2, N: 12, M: 24},
	}
	requestSpecs = []loadgen.FamilySpec{
		{Family: "assignment", Count: 8, N: 600, M: 8000},
		{Family: "powerlaw", Count: 8, N: 600, M: 8000},
		{Family: "skew", Count: 8, N: 600, M: 8000},
		{Family: "gnm", Count: 8, N: 600, M: 8000},
	}
	solveAlgos = []bmatch.Algo{bmatch.AlgoGreedy, bmatch.AlgoApprox, bmatch.AlgoFrac, bmatch.AlgoMax, bmatch.AlgoMaxWeight}
)

// requestsPerRep is how many request-sized solves one repetition makes:
// the first requestsPerRep shots of the schedule, the same in every
// repetition, in chunks of requestChunk with a calibration before each.
const (
	requestsPerRep = 200
	requestChunk   = 50
)

// requestLimit is the latency limit of a request-sized solve for ok_share,
// serve-cold's limit.
const requestLimit = 100 * time.Millisecond

// solveEps is the (1+ε) slack the solves run with (the library default).
const solveEps = engine.DefaultEps

type instance struct {
	name    string
	g       *graph.Graph
	b       graph.Budgets
	payload []byte // BMG1 encoding, as a client posts it
	// Exact optima, computed for the assignment (bipartite) instances only.
	optSize   int
	optWeight float64
}

type solveInputs struct {
	large, small []*instance
	// requests are the request-sized instances the shots draw from.
	requests []*instance
	shots    []loadgen.Shot
}

// set returns the instances an algorithm solves and the calibration its
// solve times are scaled by.
func (in *solveInputs) set(a bmatch.Algo) ([]*instance, calibration) {
	if a == bmatch.AlgoMax || a == bmatch.AlgoMaxWeight {
		return in.small, calCompute
	}
	return in.large, calLarge
}

// buildSolveInputs generates the instances from seed and computes the exact
// references the quality checks compare against.
func buildSolveInputs(seed int64) (*solveInputs, error) {
	large, err := buildInstances(seed, largeSpecs, false)
	if err != nil {
		return nil, err
	}
	in, err := buildSmallInputs(seed)
	if err != nil {
		return nil, err
	}
	in.large = large
	if in.requests, err = buildInstances(seed, requestSpecs, false); err != nil {
		return nil, err
	}
	in.shots, err = loadgen.BuildSchedule(loadgen.Spec{
		Seed: seed, Requests: requestsPerRep, Rate: 1, CorpusSize: len(in.requests),
		SeedStreams: 1 << 30, Mix: serveMix,
	})
	return in, err
}

// buildSmallInputs is the max/maxw set alone; the serving workloads probe
// the daemon with it after their timed window.
func buildSmallInputs(seed int64) (*solveInputs, error) {
	small, err := buildInstances(seed, smallSpecs, true)
	return &solveInputs{small: small}, err
}

// buildInstances generates and decodes a corpus. Assignment instances are
// bipartite and get their exact optimum size, and weight when asked.
func buildInstances(seed int64, specs []loadgen.FamilySpec, weights bool) ([]*instance, error) {
	items, err := loadgen.BuildCorpus(seed, specs)
	if err != nil {
		return nil, err
	}
	out := make([]*instance, len(items))
	for i, it := range items {
		g, b, err := graphio.DecodeBinary(it.Payload)
		if err != nil {
			return nil, fmt.Errorf("decoding %s: %w", it.Name, err)
		}
		inst := &instance{name: it.Name, g: g, b: b, payload: it.Payload}
		if isAssignment(inst) {
			if inst.optSize, err = exact.MaxBipartite(g, b); err != nil {
				return nil, err
			}
			if weights {
				if inst.optWeight, err = exact.MaxWeightBipartite(g, b); err != nil {
					return nil, err
				}
			}
		}
		out[i] = inst
	}
	return out, nil
}

func isAssignment(inst *instance) bool { return strings.HasPrefix(inst.name, "assignment/") }

// outcome is what a solve produced, kept to compare repetitions, the traced
// composition, and the checks.
type outcome struct {
	edges  []int32
	size   int
	weight float64
	x      []float64
	value  float64
	dual   float64
}

func outcomeOf(rep *bmatch.Report) outcome {
	if rep.Frac != nil {
		return outcome{x: rep.Frac.X, value: rep.Frac.Value, dual: rep.Frac.DualBound}
	}
	o := outcome{edges: rep.M.Edges(), size: rep.Size, weight: rep.Weight}
	if rep.Stats != nil {
		o.dual = rep.Stats.DualBound
	}
	return o
}

// identical compares two outcomes bit for bit.
func identical(a, b outcome) bool {
	if !slices.Equal(a.edges, b.edges) || a.size != b.size || len(a.x) != len(b.x) {
		return false
	}
	if math.Float64bits(a.weight) != math.Float64bits(b.weight) ||
		math.Float64bits(a.value) != math.Float64bits(b.value) ||
		math.Float64bits(a.dual) != math.Float64bits(b.dual) {
		return false
	}
	for i := range a.x {
		if math.Float64bits(a.x[i]) != math.Float64bits(b.x[i]) {
			return false
		}
	}
	return true
}

// checkIntegral verifies a matching from the instance alone: edge ids in
// range and distinct, matched degrees within budget, size and weight as
// reported.
func checkIntegral(inst *instance, edges []int32, size int, weight float64) error {
	deg := make([]int, inst.g.N)
	seen := make(map[int32]bool, len(edges))
	w := 0.0
	for _, e := range edges {
		if e < 0 || int(e) >= inst.g.M() || seen[e] {
			return fmt.Errorf("%s: bad or repeated edge %d", inst.name, e)
		}
		seen[e] = true
		ed := inst.g.Edges[e]
		deg[ed.U]++
		deg[ed.V]++
		w += ed.W
	}
	for v, d := range deg {
		if d > inst.b[v] {
			return fmt.Errorf("%s: vertex %d matched %d times, budget %d", inst.name, v, d, inst.b[v])
		}
	}
	if len(edges) != size {
		return fmt.Errorf("%s: %d edges, size %d", inst.name, len(edges), size)
	}
	if math.Abs(w-weight) > 1e-6*math.Max(1, math.Abs(w)) {
		return fmt.Errorf("%s: weight %g, edges sum to %g", inst.name, weight, w)
	}
	return nil
}

// checkFractional verifies an LP solution from the instance alone: every x_e
// in [0,1], every vertex sum within its budget, Σx as reported and no more
// than the dual bound.
func checkFractional(inst *instance, x []float64, value, dual float64) error {
	if len(x) != inst.g.M() {
		return fmt.Errorf("%s: %d values for %d edges", inst.name, len(x), inst.g.M())
	}
	const tol = 1e-9
	load := make([]float64, inst.g.N)
	total := 0.0
	for e, xe := range x {
		if !(xe >= -tol && xe <= 1+tol) {
			return fmt.Errorf("%s: x[%d] = %g outside [0,1]", inst.name, e, xe)
		}
		ed := inst.g.Edges[e]
		load[ed.U] += xe
		load[ed.V] += xe
		total += xe
	}
	for v, l := range load {
		if l > float64(inst.b[v])*(1+tol)+tol {
			return fmt.Errorf("%s: vertex %d carries %g > budget %d", inst.name, v, l, inst.b[v])
		}
	}
	if math.Abs(total-value) > 1e-6*math.Max(1, total) {
		return fmt.Errorf("%s: value %g, x sums to %g", inst.name, value, total)
	}
	if value > dual*(1+1e-9) {
		return fmt.Errorf("%s: value %g exceeds dual bound %g", inst.name, value, dual)
	}
	return nil
}

// checkOutcome runs the algorithm's output checks.
func checkOutcome(a bmatch.Algo, inst *instance, o outcome) error {
	if a == bmatch.AlgoFrac {
		return checkFractional(inst, o.x, o.value, o.dual)
	}
	if err := checkIntegral(inst, o.edges, o.size, o.weight); err != nil {
		return err
	}
	if !isAssignment(inst) {
		return nil
	}
	switch a {
	case bmatch.AlgoApprox:
		if o.size > inst.optSize || float64(inst.optSize) > o.dual*(1+1e-9) {
			return fmt.Errorf("%s: approx size %d, optimum %d, dual bound %g out of order", inst.name, o.size, inst.optSize, o.dual)
		}
	case bmatch.AlgoMax:
		if float64(o.size)*(1+solveEps) < float64(inst.optSize) {
			return fmt.Errorf("%s: max size %d below optimum %d / (1+ε)", inst.name, o.size, inst.optSize)
		}
	case bmatch.AlgoMaxWeight:
		if o.weight*(1+solveEps) < inst.optWeight {
			return fmt.Errorf("%s: maxw weight %g below optimum %g / (1+ε)", inst.name, o.weight, inst.optWeight)
		}
	}
	return nil
}

// cpuSeconds is this process's user+sys time, at microsecond resolution.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// rotated returns the algorithms in the order of repetition rep, so each
// algorithm takes every position in turn and slow drift is shared out.
// The empty algorithm stands for the repetition's batch of request-sized
// solves.
func rotated(rep int, withRequests bool) []bmatch.Algo {
	blocks := solveAlgos
	if withRequests {
		blocks = append(slices.Clone(solveAlgos), "")
	}
	k := rep % len(blocks)
	return append(slices.Clone(blocks[k:]), blocks[:k]...)
}

// solveRun is the result of the untraced solve workload. Its times are
// scaled by the calibration run right before each (see calibration).
type solveRun struct {
	reps     int
	solves   int
	times    map[bmatch.Algo][][]float64 // per instance, per repetition, seconds
	first    map[bmatch.Algo][]outcome
	inputs   *solveInputs
	setup    []float64
	requests int       // request-sized solves
	within   int       // request-sized solves within requestLimit
	cpu      []float64 // per repetition, CPU seconds per request-sized solve
	peakRSS  float64
}

// setupRepeats is how often a run sets up; setup_s is the median.
const setupRepeats = 5

// runSolve is the untraced solve workload: repetitions of every algorithm on
// its set until the time budget is spent, at least one repetition. Every
// solve is checked on the first repetition and must repeat it exactly after.
// peak_rss_mb covers the repetitions only: VmHWM is reset after set-up.
func runSolve(ctx context.Context, seed int64, budget time.Duration) (*solveRun, error) {
	run := &solveRun{times: map[bmatch.Algo][][]float64{}, first: map[bmatch.Algo][]outcome{}}
	for i := 0; i < setupRepeats; i++ {
		run.inputs = nil
		runtime.GC()
		f := calLarge.scale()
		start := time.Now()
		in, err := buildSolveInputs(seed)
		if err != nil {
			return nil, err
		}
		run.setup = append(run.setup, time.Since(start).Seconds()*f)
		run.inputs = in
	}
	for _, a := range solveAlgos {
		set, _ := run.inputs.set(a)
		run.times[a] = make([][]float64, len(set))
	}
	// The set-ups' garbage goes back to the kernel before VmHWM is reset.
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS("self"); err != nil {
		return nil, err
	}
	start := time.Now()
	for rep := 0; ; rep++ {
		for _, a := range rotated(rep, true) {
			if a == "" {
				if err := run.requestBatch(ctx); err != nil {
					return nil, err
				}
				continue
			}
			set, cal := run.inputs.set(a)
			for i, inst := range set {
				f := cal.scale()
				runtime.GC()
				t0 := time.Now()
				r, err := bmatch.Solve(ctx, inst.g, inst.b, bmatch.Request{Algo: a, Seed: seed})
				d := time.Since(t0)
				if err != nil {
					return nil, fmt.Errorf("%s on %s: %w", a, inst.name, err)
				}
				run.solves++
				run.times[a][i] = append(run.times[a][i], d.Seconds()*f)
				o := outcomeOf(r)
				if rep == 0 {
					if err := checkOutcome(a, inst, o); err != nil {
						return nil, err
					}
					run.first[a] = append(run.first[a], o)
				} else if !identical(o, run.first[a][i]) {
					return nil, fmt.Errorf("%s on %s: repetition %d differs from the first", a, inst.name, rep)
				}
			}
		}
		run.reps = rep + 1
		el := time.Since(start)
		if el+el/time.Duration(run.reps) > budget {
			break
		}
	}
	var err error
	run.peakRSS, err = peakRSSMB("self")
	return run, err
}

// requestBatch makes the request-sized solves, each with the algorithm,
// instance and seed of its shot of the schedule, back to back, as one
// caller would: the same shots in every repetition. The collector runs
// before each chunk rather than before each call, which would cost more
// than the calls.
func (run *solveRun) requestBatch(ctx context.Context) error {
	in := run.inputs
	cpu, f := 0.0, 0.0
	for k, s := range in.shots {
		if k%requestChunk == 0 {
			f = calRequest.scale()
			runtime.GC()
		}
		inst := in.requests[s.Corpus]
		a := bmatch.Algo(s.Algo)
		c0 := cpuSeconds()
		t0 := time.Now()
		r, err := bmatch.Solve(ctx, inst.g, inst.b, bmatch.Request{Algo: a, Seed: s.Seed})
		d := time.Since(t0)
		cpu += (cpuSeconds() - c0) * f
		if err != nil {
			return fmt.Errorf("%s on %s: %w", a, inst.name, err)
		}
		if err := checkOutcome(a, inst, outcomeOf(r)); err != nil {
			return err
		}
		run.solves++
		run.requests++
		if d <= requestLimit {
			run.within++
		}
	}
	run.cpu = append(run.cpu, cpu/float64(len(in.shots)))
	return nil
}

// metrics turns the run into the end-to-end metrics of the solve workload.
func (run *solveRun) metrics() map[string]metric {
	m := map[string]metric{
		"setup_s":     {median(run.setup), "s", len(run.setup)},
		"peak_rss_mb": {run.peakRSS, "MB", 1},
		// A solve that fails its checks fails the run; ok_share is the share
		// within the latency limit.
		"ok_share":       {float64(run.within) / float64(run.requests), "ratio", run.requests},
		"cpu_ms_per_req": {median(run.cpu) * 1000, "ms", run.requests},
	}
	for _, a := range solveAlgos {
		t := 0.0
		for _, reps := range run.times[a] {
			t += median(reps)
		}
		m["solve_s."+string(a)] = metric{t, "s", run.reps}
	}
	var size, opt float64
	for i, inst := range run.inputs.large {
		if isAssignment(inst) {
			size += float64(run.first[bmatch.AlgoApprox][i].size)
			opt += float64(inst.optSize)
		}
	}
	m["quality.approx"] = metric{size / opt, "ratio", 1}
	qm, qw := smallQuality(run.inputs.small, run.first[bmatch.AlgoMax], run.first[bmatch.AlgoMaxWeight])
	m["quality.max"] = metric{qm, "ratio", 1}
	m["quality.maxw"] = metric{qw, "ratio", 1}
	return m
}

// smallQuality is max's matched size and maxw's matched weight over the
// exact optima, summed over the assignment instances of the small set.
func smallQuality(small []*instance, maxOut, maxwOut []outcome) (float64, float64) {
	var size, opt, w, optW float64
	for i, inst := range small {
		if isAssignment(inst) {
			size += float64(maxOut[i].size)
			opt += float64(inst.optSize)
			w += maxwOut[i].weight
			optW += inst.optWeight
		}
	}
	return size / opt, w / optW
}

// layerCounts are the exact work counts the layers report about themselves.
type layerCounts struct {
	fracIterations, mpcRounds, mpcTraffic                      int64
	augInstances, augSweeps, weightedRounds, weightedInstances int64
}

// composeSolve rebuilds the engine's pipeline for algorithm a from its layer
// calls, recording one span per call, with the parameters the engine builds
// for a one-shot solve (Workers 0, no cache, no arena) and the same rng
// splits as package core. Its outcome must equal bmatch.Solve's bit for bit.
func composeSolve(ctx context.Context, rec *recorder, req int, a bmatch.Algo, inst *instance, seed int64, cnt *layerCounts) (outcome, error) {
	g, b := inst.g, inst.b
	root := rec.begin("solve."+string(a), req, -1)
	defer rec.end(root)
	if err := b.Validate(g); err != nil {
		return outcome{}, err
	}
	var m *matching.BMatching
	var o outcome
	switch a {
	case bmatch.AlgoGreedy:
		s := rec.begin("baseline.greedy", req, root)
		mm, err := baseline.GreedyWeightedCtx(ctx, g, b)
		rec.end(s)
		if err != nil {
			return o, err
		}
		m = mm
	case bmatch.AlgoApprox, bmatch.AlgoMax:
		// core.ConstApproxCtx takes the solve's rng itself for approx; for
		// max, core.OnePlusEpsUnweightedCtx hands it the first split and the
		// augmentation the second.
		r := rng.New(seed)
		rc := r
		if a == bmatch.AlgoMax {
			rc = r.Split()
		}
		mm, dual, err := composeConstApprox(ctx, rec, req, root, g, b, rc, cnt)
		if err != nil {
			return o, err
		}
		m = mm
		if a == bmatch.AlgoApprox {
			o.dual = dual
			break
		}
		s := rec.begin("augment", req, root)
		res, err := augment.OnePlusEpsCtx(ctx, g, b, m, augment.DefaultParams(solveEps), r.Split())
		rec.end(s)
		if err != nil {
			return o, err
		}
		m = res.M
		cnt.augInstances += int64(res.Instances)
		cnt.augSweeps += int64(res.Sweeps)
	case bmatch.AlgoMaxWeight:
		s := rec.begin("weighted", req, root)
		res, err := weighted.OnePlusEpsWeightedCtx(ctx, g, b, nil, weighted.DefaultParams(solveEps), rng.New(seed).Split())
		rec.end(s)
		if err != nil {
			return o, err
		}
		m = res.M
		cnt.weightedRounds += int64(res.Rounds)
		cnt.weightedInstances += int64(res.Instances)
	case bmatch.AlgoFrac:
		p := frac.BMatchingProblem(g, b)
		s := rec.begin("frac.fullmpc", req, root)
		full, err := p.FullMPCCtx(ctx, frac.PracticalParams(), rng.New(seed))
		rec.end(s)
		if err != nil {
			return o, err
		}
		countFull(cnt, full)
		s = rec.begin("frac.certify", req, root)
		err = p.CheckFeasibleTol(full.X, 1e-9)
		p.VertexCover(full.X, 0.05)
		o.x, o.value, o.dual = full.X, frac.Value(full.X), p.DualBound(full.X, 0.05)
		rec.end(s)
		return o, err
	}
	s := rec.begin("matching.validate", req, root)
	err := m.Validate()
	rec.end(s)
	o.edges, o.size, o.weight = m.Edges(), m.Size(), m.Weight()
	return o, err
}

// composeConstApprox is core.ConstApproxCtx (Theorem 3.1) from its layer
// calls: FullMPC compression, rounding plus greedy fill, and the dual
// certificate.
func composeConstApprox(ctx context.Context, rec *recorder, req, root int, g *graph.Graph, b graph.Budgets, r *rng.RNG, cnt *layerCounts) (*matching.BMatching, float64, error) {
	if err := b.Validate(g); err != nil {
		return nil, 0, err
	}
	p := frac.BMatchingProblem(g, b)
	params := frac.PracticalParams()
	s := rec.begin("frac.fullmpc", req, root)
	full, err := p.FullMPCCtx(ctx, params, r.Split())
	rec.end(s)
	if err != nil {
		return nil, 0, err
	}
	countFull(cnt, full)
	rp := round.DefaultParams()
	rp.Workers = params.Workers
	s = rec.begin("round", req, root)
	m, err := round.RoundCtx(ctx, g, b, full.X, rp, r.Split())
	if err == nil {
		round.GreedyFill(m, false)
	}
	rec.end(s)
	if err != nil {
		return nil, 0, err
	}
	s = rec.begin("frac.certify", req, root)
	frac.Value(full.X)
	dual := p.DualBound(full.X, 0.05)
	rec.end(s)
	return m, dual, nil
}

func countFull(cnt *layerCounts, full *frac.FullResult) {
	cnt.fracIterations += int64(full.Iterations)
	cnt.mpcRounds += int64(full.TotalSimRounds)
	cnt.mpcTraffic += full.SimStats.TotalTraffic
}

// solveLayers maps the composition's span names to per-layer metric names.
var solveLayers = map[string]string{
	"baseline.greedy":   "baseline.greedy_s",
	"graph.sort":        "graph.sort_s",
	"frac.fullmpc":      "frac.fullmpc_s",
	"frac.certify":      "frac.certify_s",
	"round":             "round.s",
	"augment":           "augment.s",
	"weighted":          "weighted.s",
	"matching.validate": "matching.validate_s",
}

// runSolveTraced is the solve workload's traced run. Each repetition solves
// every instance twice: once through bmatch.Solve, untraced, with
// runtime.MemStats deltas around it, and once composed from its layer calls
// with a span per call. The two outcomes must be identical. The weight sort
// inside greedy and maxw is timed on its own on the same instances.
func runSolveTraced(ctx context.Context, seed int64, budget time.Duration, rec *recorder) (map[string]metric, int, error) {
	in, err := buildSolveInputs(seed)
	if err != nil {
		return nil, 0, err
	}
	ticks0, err := readHostTicks()
	if err != nil {
		return nil, 0, err
	}
	layerReps := map[string][]float64{}
	var cnt layerCounts
	mem := map[bmatch.Algo]*[3]float64{} // alloc bytes, mallocs, GCs of the first repetition
	var traced, untraced time.Duration
	solves, reps := 0, 0
	start := time.Now()
	for {
		before := rec.totals()
		for _, a := range rotated(reps, false) {
			if reps == 0 {
				mem[a] = new([3]float64)
			}
			set, _ := in.set(a)
			for _, inst := range set {
				runtime.GC()
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				t0 := time.Now()
				r, err := bmatch.Solve(ctx, inst.g, inst.b, bmatch.Request{Algo: a, Seed: seed})
				untraced += time.Since(t0)
				runtime.ReadMemStats(&m1)
				if err != nil {
					return nil, 0, err
				}
				if reps == 0 {
					mem[a][0] += float64(m1.TotalAlloc - m0.TotalAlloc)
					mem[a][1] += float64(m1.Mallocs - m0.Mallocs)
					mem[a][2] += float64(m1.NumGC - m0.NumGC)
				}
				runtime.GC()
				c := &layerCounts{} // counts are exact, so the first repetition's suffice
				if reps == 0 {
					c = &cnt
				}
				t1 := time.Now()
				got, err := composeSolve(ctx, rec, solves, a, inst, seed, c)
				traced += time.Since(t1)
				if err != nil {
					return nil, 0, err
				}
				if !identical(got, outcomeOf(r)) {
					return nil, 0, fmt.Errorf("%s on %s: composed layers differ from bmatch.Solve", a, inst.name)
				}
				if err := checkOutcome(a, inst, got); err != nil {
					return nil, 0, err
				}
				if a == bmatch.AlgoGreedy || a == bmatch.AlgoMaxWeight {
					s := rec.begin("graph.sort", solves, -1)
					graph.SortEdgesByWeightDesc(inst.g)
					rec.end(s)
				}
				solves++
			}
		}
		after := rec.totals()
		for span, name := range solveLayers {
			layerReps[name] = append(layerReps[name], (after[span] - before[span]).Seconds())
		}
		reps++
		el := time.Since(start)
		if el+el/time.Duration(reps) > budget {
			break
		}
	}
	ticks1, err := readHostTicks()
	if err != nil {
		return nil, 0, err
	}
	m := map[string]metric{}
	for name, v := range layerReps {
		m[name] = metric{median(v), "s", reps}
	}
	for a, v := range mem {
		m["alloc_mb."+string(a)] = metric{v[0] / (1 << 20), "MB", 1}
		m["mallocs."+string(a)] = metric{v[1], "count", 1}
		m["gc_count."+string(a)] = metric{v[2], "count", 1}
	}
	for name, v := range map[string]int64{
		"frac.iterations":    cnt.fracIterations,
		"mpc.rounds":         cnt.mpcRounds,
		"mpc.traffic_words":  cnt.mpcTraffic,
		"augment.instances":  cnt.augInstances,
		"augment.sweeps":     cnt.augSweeps,
		"weighted.rounds":    cnt.weightedRounds,
		"weighted.instances": cnt.weightedInstances,
	} {
		m[name] = metric{float64(v), "count", 1}
	}
	m["host.steal_share"] = metric{stealShare(ticks0, ticks1), "ratio", 1}
	m["trace.overhead_ratio"] = metric{traced.Seconds() / untraced.Seconds(), "ratio", solves}
	return m, solves, nil
}
