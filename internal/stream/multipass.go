// Multi-pass (1+ε) streaming drivers. Each layered-graph instance is grown
// gap by gap, one stream pass per gap: when an unmatched edge arrives, its
// orientation (and, in the unweighted variant, its layer) is computed from
// a k-wise independent hash of its id — identical on every pass, with no
// per-edge storage — and the edge either completes an active alternating
// path at a free copy, extends one through a stored matched arc, or is
// discarded on the spot. Matched edges, path state, and free-copy splits
// are the only retained state: O((1/ε)·Σb_v) words.
package stream

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/hash"
	"repro/internal/rng"
	"repro/internal/scratch"
)

// Params controls the multi-pass drivers.
type Params struct {
	Eps         float64
	RetriesPerK int // instances per walk length per sweep (default 4)
	MaxRetries  int // adaptive escalation cap (default 32)
	StallSweeps int // consecutive empty sweeps before stopping (default 2)
	MaxSweeps   int // hard sweep cap (default 40)
	HashK       int // independence of the edge hashes (default 2⌈1/ε⌉+2)
}

func (p Params) withDefaults() Params {
	if p.Eps <= 0 {
		p.Eps = 0.25
	}
	if p.RetriesPerK <= 0 {
		p.RetriesPerK = 4
	}
	if p.MaxRetries < p.RetriesPerK {
		p.MaxRetries = 32
		if p.MaxRetries < p.RetriesPerK {
			p.MaxRetries = p.RetriesPerK
		}
	}
	if p.StallSweeps <= 0 {
		p.StallSweeps = 2
	}
	if p.MaxSweeps <= 0 {
		p.MaxSweeps = 40
	}
	if p.HashK <= 0 {
		p.HashK = 2*int(math.Ceil(1/p.Eps)) + 2
	}
	return p
}

// streamMatching is the retained matching state.
type streamMatching struct {
	n       int
	b       graph.Budgets
	matched map[int32]graph.Edge
	deg     []int
	weight  float64
	meter   *Meter
}

func newStreamMatching(n int, b graph.Budgets, meter *Meter) *streamMatching {
	meter.Charge(int64(n)) // degree counters
	return &streamMatching{
		n:       n,
		b:       b,
		matched: make(map[int32]graph.Edge),
		deg:     make([]int, n),
		meter:   meter,
	}
}

func (sm *streamMatching) add(id int32, e graph.Edge) error {
	if _, dup := sm.matched[id]; dup {
		return fmt.Errorf("stream: edge %d already matched", id)
	}
	if sm.deg[e.U] >= sm.b[e.U] || sm.deg[e.V] >= sm.b[e.V] {
		return fmt.Errorf("stream: budget violation adding edge %d", id)
	}
	sm.matched[id] = e
	sm.deg[e.U]++
	sm.deg[e.V]++
	sm.weight += e.W
	sm.meter.Charge(3)
	return nil
}

func (sm *streamMatching) remove(id int32) error {
	e, ok := sm.matched[id]
	if !ok {
		return fmt.Errorf("stream: edge %d not matched", id)
	}
	delete(sm.matched, id)
	sm.deg[e.U]--
	sm.deg[e.V]--
	sm.weight -= e.W
	sm.meter.Release(3)
	return nil
}

func (sm *streamMatching) residual(v int32) int { return sm.b[v] - sm.deg[v] }

// walkEdge is one step of a streaming alternating walk.
type walkEdge struct {
	id      int32
	e       graph.Edge
	matched bool // matched at the time the instance was built
}

// streamPath is an alternating path under construction.
type streamPath struct {
	edges      []walkEdge
	start, end int32
	startsFree bool
	gain       float64
	bestLen    int
	bestGain   float64
}

// instanceResult carries the walks selected from one instance.
type instanceResult struct {
	walks  [][]walkEdge
	passes int
}

// growInstance runs one layered instance over the stream. weighted selects
// the Section 5 behaviour (matched-edge starts, gain-filtered prefixes);
// otherwise the Section 4 unweighted behaviour (free-to-free walks with
// hash-assigned layers for unmatched edges). ctx is checked at every pass
// boundary (each gap is one stream pass); a cancelled instance returns
// ctx's error having touched only instance-local state, so the retained
// matching is exactly what it was before the instance started.
func growInstance(ctx context.Context, s Stream, sm *streamMatching, k int, weighted bool, hOrient, hLayer *hash.KWise, r *rng.RNG) (*instanceResult, error) {
	// Retained instance state (released when the instance ends).
	var instWords int64
	charge := func(w int64) { sm.meter.Charge(w); instWords += w }
	defer func() { sm.meter.Release(instWords) }()

	// Free-copy split. The split counters and the matched-id ordering are
	// instance-local, so they come from a pooled scratch arena; the walks
	// handed back hold only heap state (the meter still accounts the words
	// as retained instance state, as before).
	ar, releaseScratch := scratch.Borrow(nil)
	defer releaseScratch()
	freeH := ar.I32(sm.n)
	freeT := ar.I32(sm.n)
	charge(int64(2 * sm.n))
	for v := int32(0); int(v) < sm.n; v++ {
		for s := sm.residual(v); s > 0; s-- {
			if r.Bool() {
				freeH[v]++
			} else {
				freeT[v]++
			}
		}
	}

	// Matched arcs from the stored matching.
	type arc struct {
		id          int32
		e           graph.Edge
		entry, exit int32
		used        bool
	}
	arcsAt := make(map[int64][]*arc) // (layer, entry) key
	akey := func(layer int, v int32) int64 { return int64(layer)<<40 | int64(v) }
	var starts []*streamPath
	// Iterate matched edges in sorted id order: Go map iteration order is
	// randomized and would consume the RNG nondeterministically.
	mids := ar.I32Raw(len(sm.matched))[:0]
	//lint:sorted ids are collected here and slices.Sort'ed before iteration
	for id := range sm.matched {
		mids = append(mids, id)
	}
	slices.Sort(mids)
	for _, id := range mids {
		e := sm.matched[id]
		if weighted {
			uH, vH := r.Bool(), r.Bool()
			if uH == vH {
				continue
			}
			layer := 1 + r.Intn(k)
			a := &arc{id: id, e: e}
			if uH {
				a.exit, a.entry = e.U, e.V
			} else {
				a.exit, a.entry = e.V, e.U
			}
			charge(4)
			if layer == 1 {
				a.used = true
				p := &streamPath{
					edges: []walkEdge{{id: id, e: e, matched: true}},
					start: a.entry, end: a.exit,
					gain:    -e.W,
					bestLen: 1, bestGain: -e.W,
				}
				starts = append(starts, p)
			} else {
				arcsAt[akey(layer, a.entry)] = append(arcsAt[akey(layer, a.entry)], a)
			}
		} else {
			layer := 1 + r.Intn(k)
			a := &arc{id: id, e: e}
			if r.Bool() {
				a.entry, a.exit = e.U, e.V
			} else {
				a.entry, a.exit = e.V, e.U
			}
			charge(4)
			arcsAt[akey(layer, a.entry)] = append(arcsAt[akey(layer, a.entry)], a)
		}
	}
	for v := int32(0); int(v) < sm.n; v++ {
		for c := int32(0); c < freeH[v]; c++ {
			starts = append(starts, &streamPath{start: v, end: v, startsFree: true})
		}
	}
	charge(int64(len(starts)))

	freeTLeft := freeT
	usedEdge := make(map[int32]bool)
	active := starts
	var done []*streamPath
	passes := 0

	firstGap := 1
	if !weighted {
		firstGap = 0 // unweighted layering indexes unmatched layers 0..k
	}
	for gap := firstGap; gap <= k && len(active) > 0; gap++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		passes++
		// Index active paths by endpoint.
		byEnd := make(map[int32][]*streamPath)
		for _, p := range active {
			byEnd[p.end] = append(byEnd[p.end], p)
		}
		var next []*streamPath
		s.Reset()
		for {
			id, e, ok := s.Next()
			if !ok {
				break
			}
			if _, isM := sm.matched[id]; isM || usedEdge[id] {
				continue
			}
			if !weighted && hLayer.Intn(uint64(id), k+1) != gap {
				continue
			}
			src := e.U
			if hOrient.Bool(uint64(id)) {
				src = e.V
			}
			cands := byEnd[src]
			if len(cands) == 0 {
				continue
			}
			p := cands[len(cands)-1]
			y := e.Other(src)
			if freeTLeft[y] > 0 {
				// Complete here.
				freeTLeft[y]--
				usedEdge[id] = true
				p.edges = append(p.edges, walkEdge{id: id, e: e})
				p.gain += e.W
				if !weighted || p.gain > p.bestGain || p.bestLen == 0 {
					p.bestLen, p.bestGain = len(p.edges), p.gain
				}
				p.end = y
				done = append(done, p)
				byEnd[src] = cands[:len(cands)-1]
				continue
			}
			if gap == k {
				continue
			}
			arcs := arcsAt[akey(gap+1, y)]
			var got *arc
			for _, a := range arcs {
				if !a.used {
					got = a
					break
				}
			}
			if got == nil {
				continue
			}
			got.used = true
			usedEdge[id] = true
			p.edges = append(p.edges,
				walkEdge{id: id, e: e},
				walkEdge{id: got.id, e: got.e, matched: true})
			p.gain += e.W - got.e.W
			if weighted && (p.gain > p.bestGain || p.bestLen == 0) {
				p.bestLen, p.bestGain = len(p.edges), p.gain
			}
			p.end = got.exit
			next = append(next, p)
			byEnd[src] = cands[:len(cands)-1]
		}
		active = next
	}
	if weighted {
		done = append(done, active...)
	}

	res := &instanceResult{passes: passes}
	for _, p := range done {
		if weighted {
			if p.bestLen == 0 || p.bestGain <= 0 {
				continue
			}
			res.walks = append(res.walks, p.edges[:p.bestLen])
		} else {
			if p.bestLen == 0 {
				continue // never completed at a free copy
			}
			res.walks = append(res.walks, p.edges[:p.bestLen])
		}
	}
	return res, nil
}

// applyWalk flips a walk on the stored matching.
func (sm *streamMatching) applyWalk(w []walkEdge) error {
	for _, we := range w {
		if we.matched {
			if err := sm.remove(we.id); err != nil {
				return err
			}
		}
	}
	for _, we := range w {
		if !we.matched {
			if err := sm.add(we.id, we.e); err != nil {
				return err
			}
		}
	}
	return nil
}

// fillPass adds every addable (positive-weight) edge in one pass.
func fillPass(s Stream, sm *streamMatching) int {
	added := 0
	s.Reset()
	for {
		id, e, ok := s.Next()
		if !ok {
			break
		}
		if _, isM := sm.matched[id]; isM {
			continue
		}
		if e.W > 0 && sm.deg[e.U] < sm.b[e.U] && sm.deg[e.V] < sm.b[e.V] {
			if err := sm.add(id, e); err == nil {
				added++
			}
		}
	}
	return added
}

// Result reports a multi-pass streaming run.
type Result struct {
	EdgeIDs   []int32
	Size      int
	Weight    float64
	Passes    int
	PeakWords int64
	Sweeps    int
}

// OnePlusEpsCtx runs the multi-pass unweighted driver over the stream.
// ctx is checked at every stream-pass boundary (the initial fill pass, each
// layered instance's gap passes, and each sweep's closing fill pass) — the
// same contract as the MPC drivers. A cancelled run returns ctx's error
// and no partial result.
func OnePlusEpsCtx(ctx context.Context, s Stream, n int, b graph.Budgets, params Params, r *rng.RNG) (*Result, error) {
	return run(ctx, s, n, b, params, false, r)
}

// OnePlusEpsWeightedCtx runs the multi-pass weighted driver over the
// stream, with cancellation at pass boundaries (see OnePlusEpsCtx).
func OnePlusEpsWeightedCtx(ctx context.Context, s Stream, n int, b graph.Budgets, params Params, r *rng.RNG) (*Result, error) {
	return run(ctx, s, n, b, params, true, r)
}

func run(ctx context.Context, s Stream, n int, b graph.Budgets, params Params, weighted bool, r *rng.RNG) (*Result, error) {
	params = params.withDefaults()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var meter Meter
	sm := newStreamMatching(n, b, &meter)
	fillPass(s, sm) // initial greedy pass (the 2-approximate baseline)
	passes := 1

	K := int(math.Ceil(2 / params.Eps))
	if weighted {
		K = int(math.Ceil(1/params.Eps)) + 1
	}
	stall := 0
	retries := params.RetriesPerK
	sweeps := 0
	for sweep := 0; sweep < params.MaxSweeps && stall < params.StallSweeps; sweep++ {
		sweeps++
		improved := 0
		for k := 1; k <= K; k++ {
			for try := 0; try < retries; try++ {
				hOrient, err := hash.New(params.HashK, r.Split())
				if err != nil {
					return nil, err
				}
				hLayer, err := hash.New(params.HashK, r.Split())
				if err != nil {
					return nil, err
				}
				inst, err := growInstance(ctx, s, sm, k, weighted, hOrient, hLayer, r.Split())
				if err != nil {
					return nil, err
				}
				passes += inst.passes
				for _, w := range inst.walks {
					if err := sm.applyWalk(w); err != nil {
						return nil, fmt.Errorf("stream: applying walk: %w", err)
					}
					improved++
				}
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		passes++
		fillPass(s, sm)
		if improved == 0 {
			if retries < params.MaxRetries {
				retries *= 2
				if retries > params.MaxRetries {
					retries = params.MaxRetries
				}
			} else {
				stall++
			}
		} else {
			stall = 0
			retries = params.RetriesPerK
		}
	}

	ids := make([]int32, 0, len(sm.matched))
	//lint:sorted ids are collected here and slices.Sort'ed before they reach the Result
	for id := range sm.matched {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return &Result{
		EdgeIDs:   ids,
		Size:      len(ids),
		Weight:    sm.weight,
		Passes:    passes,
		PeakWords: meter.Peak(),
		Sweeps:    sweeps,
	}, nil
}
