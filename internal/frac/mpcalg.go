// OneRoundMPC (Algorithm 2): one round-compression step, executed on the
// MPC simulator. Vertices are randomly partitioned across N = ⌈√d̄⌉
// machines; each machine locally simulates T = ⌊log2(N)/divisor⌋ iterations
// of the idealized process on its induced subgraph, using the estimate
// ỹ_v = N·Σ_{e ∈ E_local(v)} x̃_e in place of the true incident sum; then a
// constant number of communication rounds computes the final edge values
// and zeroes out edges incident to "bad" vertices (those whose true sum
// exceeds b_v), which restores feasibility (Theorem 3.14).
//
// Memory model: the step is hot inside FullMPC's while-loop, so all of its
// index structures (partition tables, CSR holder lists, per-round working
// arrays) are borrowed from a scratch arena and released when the step
// returns — only the solution x̃ is heap-allocated. Machine callbacks run
// in parallel, so per-machine state is either a disjoint region of a shared
// array (each machine writes only vertices/edges it owns) or borrowed from
// the pooled per-callback arenas; message payloads are packed int32/int64
// batches allocated on the heap because they outlive the callback that
// sends them. Results, stats, and RNG consumption are bit-identical to the
// map-based implementation this replaced.
package frac

import (
	"context"
	"math"
	"math/bits"
	"slices"

	"repro/internal/mpc"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/scratch"
)

// MPCParams are the knobs of the round-compression step. The zero value is
// invalid; use PaperParams or PracticalParams.
type MPCParams struct {
	// TDivisor sets T = ⌊log2(N)/TDivisor⌋. The paper uses 1000, chosen for
	// the concentration proofs; at laptop scale that always yields T = 0.
	TDivisor float64
	// MinT is a floor on T ("practical mode"). 0 reproduces the paper
	// formula verbatim.
	MinT int
	// MaxT caps T when positive.
	MaxT int
	// SwitchFactor: FullMPC switches to the sequential solver when the
	// active subgraph has fewer than SwitchFactor·n·log2(n) edges. The paper
	// uses n·log^10(n); that regime is unreachable at laptop scale (see
	// DESIGN.md), so the factor is a knob with default 1 (i.e. n·log n).
	SwitchFactor float64
	// MaxIterations bounds the FullMPC while-loop (safety net; the paper
	// proves O(log log d̄) iterations suffice with constant probability).
	MaxIterations int
	// InitNoClamp selects the ablated initialization q_v = 0.8·b_v/deg(v)
	// instead of the paper's q_v = 0.8·b_v/max(d̄, deg(v)). The paper warns
	// (Section 1.4) that the unclamped rule gives low-degree vertices edge
	// values too large for accurate estimates; experiment E10 measures it.
	InitNoClamp bool
	// Workers is the worker-pool width for the simulator's compute and
	// delivery phases (and for the parallel stages of the drivers built on
	// top). 0 selects GOMAXPROCS. Results are identical for every value.
	Workers int
	// Transport selects the simulator's delivery backend. Nil is the
	// in-process pipeline; a non-nil factory (e.g. mpctransport.Dialer)
	// routes every superstep's messages through external worker
	// processes. Results are bit-identical across backends: the
	// (sender, key, seq) delivery order is the wire spec.
	Transport mpc.TransportFactory
	// Scratch, when non-nil, is the caller-owned arena the drivers borrow
	// their round-local buffers from (engine sessions own one per worker);
	// nil borrows from the package pool. Purely an allocation knob: results
	// are bit-identical for every arena and across arena reuse.
	Scratch *scratch.Arena
	// Values selects the value type of the solver's hot vectors. The
	// default ValuesF64 reproduces the pre-generic float64 results bit for
	// bit; ValuesF32 halves kernel memory traffic at the documented
	// relative-error budget (README "Value modes"). Either mode is
	// bit-identical across worker counts, transports, and arenas.
	Values ValueMode
}

// PaperParams returns the constants exactly as in the paper (TDivisor 1000),
// with the documented laptop-scale switch threshold.
func PaperParams() MPCParams {
	return MPCParams{TDivisor: 1000, SwitchFactor: 1, MaxIterations: 200}
}

// PracticalParams returns the practical-mode constants used by the
// experiments: T = max(1, ⌊log2(N)/2⌋), same algorithm otherwise.
func PracticalParams() MPCParams {
	return MPCParams{TDivisor: 2, MinT: 1, SwitchFactor: 1, MaxIterations: 200}
}

func (p MPCParams) pickT(n int) int {
	t := int(math.Floor(math.Log2(float64(n)) / p.TDivisor))
	if t < p.MinT {
		t = p.MinT
	}
	if p.MaxT > 0 && t > p.MaxT {
		t = p.MaxT
	}
	return t
}

// OneRoundResult carries the output of a compression step together with the
// simulator's measurements.
type OneRoundResult struct {
	X               []float64 // feasible fractional solution x̃
	N               int       // number of random partitions ⌈√d̄⌉
	T               int       // locally simulated iterations
	Machines        int       // machines in the simulation
	MaxMachineEdges int       // Lemma 3.28 observable: max edges on a machine
	Stats           mpc.Stats
}

// packVA packs a (vertex, last-active-round) pair into one int64 message
// word; lastActive is always ≥ 0, so the low 32 bits round-trip exactly.
func packVA(v, last int32) int64 { return int64(v)<<32 | int64(uint32(last)) }

// OneRoundMPCCtx executes Algorithm 2 on the MPC simulator. thresholds may
// be nil (a fresh table is drawn). The returned x̃ is always LP-feasible.
//
// The simulator checks ctx at every superstep boundary and the driver
// aborts between supersteps, returning ctx's error with no partial
// solution. params.Values selects the value mode; the returned X is always
// float64 (an exact conversion — every float32 value is
// float64-representable).
func (p *Problem) OneRoundMPCCtx(ctx context.Context, params MPCParams, thresholds ThresholdFn, r *rng.RNG) (*OneRoundResult, error) {
	if params.Values == ValuesF32 {
		ar, done := scratch.Borrow(params.Scratch)
		defer done()
		out, err := oneRoundMPC(ctx, viewScratch[float32](p, ar), params, thresholds, r)
		if err != nil {
			return nil, err
		}
		return out.result(), nil
	}
	out, err := oneRoundMPC(ctx, NewView[float64](p), params, thresholds, r)
	if err != nil {
		return nil, err
	}
	return out.result(), nil
}

// oneRoundOut is the value-typed output of the generic compression step.
type oneRoundOut[V Val] struct {
	x               []V
	n, t            int
	machines        int
	maxMachineEdges int
	stats           mpc.Stats
}

func (o *oneRoundOut[V]) result() *OneRoundResult {
	return &OneRoundResult{
		X: toF64(o.x), N: o.n, T: o.t, Machines: o.machines,
		MaxMachineEdges: o.maxMachineEdges, Stats: o.stats,
	}
}

// oneRoundMPC is the generic Algorithm 2 core. The value type V touches
// only the per-edge working vectors (x̃ and its round-2 local copy) and the
// threshold table storage: the local estimate sums, the round-3 partial
// sums on the wire (float64 bits packed into int64 pairs, unchanged wire
// format), and the round-4 bad-vertex totals all stay float64, because
// those are the comparisons Theorem 3.14's feasibility restoration hangs
// on. For V = float64 every conversion below is the identity.
func oneRoundMPC[V Val](ctx context.Context, w View[V], params MPCParams, thresholds ThresholdFn, r *rng.RNG) (*oneRoundOut[V], error) {
	p := w.p
	g := p.G
	n, m := g.N, g.M()
	if m == 0 {
		return &oneRoundOut[V]{x: make([]V, 0), n: 1, machines: 1}, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ar, done := scratch.Borrow(params.Scratch)
	defer done()

	davg := g.AvgDeg()
	N := int(math.Ceil(math.Sqrt(davg)))
	if N < 2 {
		N = 2
	}
	T := params.pickT(N)
	if thresholds == nil {
		thresholds = newThresholdsScratch[V](p, T, r, ar)
	}
	workers := params.Workers
	x0 := grabV[V](ar, m)
	if params.InitNoClamp {
		w.initialValuesUnclampedInto(x0, ar.F64Raw(n))
	} else {
		w.InitialValues(x0, ar.F64Raw(n), davg, workers)
	}

	// Random vertex partition (line 3 of Algorithm 2).
	iv := ar.I32Raw(n)
	for v := range iv {
		iv[v] = int32(r.Intn(N))
	}

	// Machine layout: the first N machines host the induced subgraphs; the
	// cluster is sized so that total memory O(m+n) spreads into O(n)-word
	// machines.
	mtot := N
	if extra := (m + n - 1) / maxInt(n, 1); extra > mtot {
		mtot = extra
	}
	sim, err := mpc.NewSimWithTransport(mtot, params.Workers, params.Transport)
	if err != nil {
		return nil, err
	}
	defer sim.Close()
	sim.SetContext(ctx)

	// Input layout (arbitrary initial distribution, as the model allows):
	// edge e starts at machine e mod mtot. CSR: machine h's edges are
	// seList[seStart[h]:seStart[h+1]], ascending. Machine h holds every
	// edge ≡ h (mod mtot), so the counts are m/mtot (+1 for the first
	// m mod mtot machines) in closed form, and edge e's slot is its rank
	// e/mtot within its machine — the fill pass is elementwise.
	seStart := ar.I32(mtot + 1)
	for i := 0; i < mtot; i++ {
		c := int32(m / mtot)
		if i < m%mtot {
			c++
		}
		seStart[i+1] = seStart[i] + c
	}
	seList := ar.I32Raw(m)
	// holder[e]: machine that computes x̃_e after the shuffle. Induced edges
	// move to their partition's machine; crossing edges stay at their start.
	holder := ar.I32Raw(m)
	induced := ar.BoolRaw(m)
	//lint:parallel elementwise over edges: slot seStart[e%mtot]+e/mtot, holder[e], induced[e] are written only by e's own block
	par.ParallelForBlocks(workers, m, edgeGrain, func(lo, hi int) {
		for e := lo; e < hi; e++ {
			seList[int(seStart[e%mtot])+e/mtot] = int32(e)
			ed := g.Edges[e]
			if iv[ed.U] == iv[ed.V] {
				holder[e] = iv[ed.U]
				induced[e] = true
			} else {
				holder[e] = int32(e % mtot)
				induced[e] = false
			}
		}
	})

	// vertexToHolders: machines holding an edge incident to v, deduped with
	// a timestamp array so the whole pass is O(m). CSR: v's holders are
	// vthList[vthStart[v]:vthStart[v+1]], in first-occurrence order of
	// Incident(v). Both passes run over degree-balanced vertex blocks: a
	// vertex's holder set is computed entirely within its own block, and the
	// stamp dedupe only ever compares against the current vertex id, so a
	// per-callback stamp array (initialized to -1) dedupes exactly like the
	// single serial one did.
	vbm := vertexBlocksScratch(g, vertexWorkGrain, ar)
	vthStart := ar.I32(n + 1)
	//lint:parallel blocks write disjoint vthStart slots; per-callback stamp arrays dedupe identically because the test only matches the current vertex id
	par.ParallelForBlocks(workers, len(vbm)-1, 1, func(lo, hi int) {
		a2 := scratch.Get()
		defer scratch.Put(a2)
		stamp := a2.I32Raw(mtot)
		for i := range stamp {
			stamp[i] = -1
		}
		for b := lo; b < hi; b++ {
			for v := vbm[b]; v < vbm[b+1]; v++ {
				for _, e := range g.Incident(v) {
					if h := holder[e]; stamp[h] != v {
						stamp[h] = v
						vthStart[v+1]++
					}
				}
			}
		}
	})
	for v := 0; v < n; v++ {
		vthStart[v+1] += vthStart[v]
	}
	vthList := ar.I32Raw(int(vthStart[n]))
	//lint:parallel blocks fill disjoint vthList ranges [vthStart[v], vthStart[v+1]); dedupe as above
	par.ParallelForBlocks(workers, len(vbm)-1, 1, func(lo, hi int) {
		a2 := scratch.Get()
		defer scratch.Put(a2)
		stamp := a2.I32Raw(mtot)
		for i := range stamp {
			stamp[i] = -1
		}
		for b := lo; b < hi; b++ {
			for v := vbm[b]; v < vbm[b+1]; v++ {
				idx := vthStart[v]
				for _, e := range g.Incident(v) {
					if h := holder[e]; stamp[h] != v {
						stamp[h] = v
						vthList[idx] = h
						idx++
					}
				}
			}
		}
	})
	vth := func(v int32) []int32 { return vthList[vthStart[v]:vthStart[v+1]] }

	// partitionVertices: vertices assigned to partition i, ascending. CSR.
	pvStart := ar.I32(N + 1)
	for v := 0; v < n; v++ {
		pvStart[iv[v]+1]++
	}
	for i := 0; i < N; i++ {
		pvStart[i+1] += pvStart[i]
	}
	pvList := ar.I32Raw(n)
	{
		fill := ar.I32(N)
		for v := 0; v < n; v++ {
			i := iv[v]
			pvList[pvStart[i]+fill[i]] = int32(v)
			fill[i]++
		}
	}

	// Payload slabs. Message payloads outlive the callback that sends them
	// (they are consumed next round), so they cannot come from the pooled
	// per-callback arenas — but they never outlive this step, so they CAN
	// come from the step's arena. Serial prepasses size every machine's
	// region exactly; the parallel callbacks then only slice their own
	// region, so no arena call ever runs concurrently.
	//
	// Round 1 sends one int32 per induced edge, from the edge's start
	// machine e mod mtot.
	r1Off := ar.I32(mtot + 1)
	for e := 0; e < m; e++ {
		if induced[e] {
			r1Off[e%mtot+1]++
		}
	}
	for i := 0; i < mtot; i++ {
		r1Off[i+1] += r1Off[i]
	}
	r1Slab := ar.I32Raw(int(r1Off[mtot]))
	// Round 2 sends one packed int64 per (partition vertex, holder) pair;
	// machine i's share is Σ_{v in partition i} |vth(v)|.
	r2Off := ar.I32(N + 1)
	for v := 0; v < n; v++ {
		r2Off[iv[v]+1] += vthStart[v+1] - vthStart[v]
	}
	for i := 0; i < N; i++ {
		r2Off[i+1] += r2Off[i]
	}
	r2Slab := ar.I64Raw(int(r2Off[N]))

	// Shared result/working arrays; each machine writes only slots it owns
	// (its partition's vertices, its held edges), so concurrent writes are
	// race-free. xFinal escapes in the result and stays heap-allocated.
	lastActive := ar.I32Raw(n)
	act := ar.BoolRaw(n)  // round-2 activity, per partition vertex
	ySum := ar.F64Raw(n)  // round-2 local estimate sums, per partition vertex (always f64)
	xw := grabV[V](ar, m) // round-2 local edge values, per induced edge
	xFinal := make([]V, m)

	// ---- Round 1: shuffle induced edges to their partition machines,
	// batched per destination (same words and delivery order as one message
	// per edge: batches are built in ascending edge id and delivered in
	// sender order). ----
	inducedAt := sim.Exchange(func(mm *mpc.Machine) {
		mine := seList[seStart[mm.ID]:seStart[mm.ID+1]]
		mm.Charge(int64(len(mine)))
		a2 := scratch.Get()
		defer scratch.Put(a2)
		cnt := a2.I32(mtot)
		sent := int64(0)
		for _, e := range mine {
			if induced[e] {
				cnt[holder[e]]++
				sent++
			}
		}
		if sent > 0 {
			// Payloads outlive this callback (consumed next round); this
			// machine's pre-sized slab region is carved per destination.
			flat := r1Slab[r1Off[mm.ID]:r1Off[mm.ID+1]]
			off := a2.I32Raw(mtot)
			o := int32(0)
			for d := 0; d < mtot; d++ {
				off[d] = o
				o += cnt[d]
			}
			for _, e := range mine {
				if induced[e] {
					d := holder[e]
					flat[off[d]] = e
					off[d]++
				}
			}
			o = 0
			for d := 0; d < mtot; d++ {
				if cnt[d] > 0 {
					mm.Send(d, 0, flat[o:o+cnt[d]], int64(cnt[d]))
					o += cnt[d]
				}
			}
		}
		mm.Release(sent)
	})
	if err := sim.Err(); err != nil {
		return nil, err
	}

	// heldEdges: edges machine i computes x̃ for — its induced arrivals (in
	// delivery order: sender ascending, edge id ascending within a sender),
	// then its remaining crossing edges ascending. CSR.
	heStart := ar.I32(mtot + 1)
	for i := 0; i < mtot; i++ {
		c := int32(0)
		for _, msg := range inducedAt[i] {
			c += int32(len(msg.Payload.([]int32)))
		}
		for _, e := range seList[seStart[i]:seStart[i+1]] {
			if !induced[e] {
				c++
			}
		}
		heStart[i+1] = heStart[i] + c
	}
	heList := ar.I32Raw(int(heStart[mtot]))
	maxMachineEdges := 0
	for i := 0; i < mtot; i++ {
		idx := heStart[i]
		for _, msg := range inducedAt[i] {
			for _, e := range msg.Payload.([]int32) {
				heList[idx] = e
				idx++
			}
		}
		for _, e := range seList[seStart[i]:seStart[i+1]] {
			if !induced[e] {
				heList[idx] = e
				idx++
			}
		}
		if held := int(heStart[i+1] - heStart[i]); held > maxMachineEdges {
			maxMachineEdges = held
		}
	}
	held := func(i int) []int32 { return heList[heStart[i]:heStart[i+1]] }

	// Round 3 sends one (vertex, bits) int64 pair per distinct endpoint of a
	// machine's held edges; a serial stamp prepass counts them exactly.
	r3Off := ar.I32(mtot + 1)
	{
		stamp := ar.I32Raw(n)
		for i := range stamp {
			stamp[i] = -1
		}
		for i := 0; i < mtot; i++ {
			c := int32(0)
			for _, e := range held(i) {
				ed := g.Edges[e]
				if stamp[ed.U] != int32(i) {
					stamp[ed.U] = int32(i)
					c++
				}
				if stamp[ed.V] != int32(i) {
					stamp[ed.V] = int32(i)
					c++
				}
			}
			r3Off[i+1] = r3Off[i] + c
		}
	}
	r3Slab := ar.I64Raw(2 * int(r3Off[mtot]))

	// Local induced edges per partition machine (held ∩ induced), in held
	// order. CSR over the first N machines.
	leStart := ar.I32(N + 1)
	for i := 0; i < N; i++ {
		c := int32(0)
		for _, e := range held(i) {
			if induced[e] && int(holder[e]) == i {
				c++
			}
		}
		leStart[i+1] = leStart[i] + c
	}
	leList := ar.I32Raw(int(leStart[N]))
	for i := 0; i < N; i++ {
		idx := leStart[i]
		for _, e := range held(i) {
			if induced[e] && int(holder[e]) == i {
				leList[idx] = e
				idx++
			}
		}
	}

	// ---- Round 2: local simulation of T iterations on each induced
	// subgraph, then scatter lastActive to edge holders. Per-vertex sums are
	// accumulated by sweeping the local edge list — the same additions, in
	// the same order, as the per-vertex adjacency walk it replaced. ----
	activeMsgs := sim.Exchange(func(mm *mpc.Machine) {
		if mm.ID >= N {
			return
		}
		verts := pvList[pvStart[mm.ID]:pvStart[mm.ID+1]]
		locals := leList[leStart[mm.ID]:leStart[mm.ID+1]]
		mm.Charge(int64(len(locals) + len(verts)))
		// Fused init sweep: activity flags and the round-1 estimate sums in
		// one pass each. ySum accumulates x̃_{e,0} in ascending local-edge
		// order — the exact order of the zero-then-accumulate passes this
		// replaced, so every per-vertex sum is the same left-fold.
		for _, v := range verts {
			act[v] = true
			lastActive[v] = 0
			ySum[v] = 0
		}
		if T > 0 {
			for _, e := range locals {
				xw[e] = x0[e]
				ed := g.Edges[e]
				ySum[ed.U] += float64(x0[e])
				ySum[ed.V] += float64(x0[e])
			}
		} else {
			for _, e := range locals {
				xw[e] = x0[e]
			}
		}
		for t := 1; t <= T; t++ {
			// Fused vertex sweep: threshold-compare ỹ_{v,t-1} = N·ySum[v]
			// and reset the accumulator for round t's sums in one pass.
			for _, v := range verts {
				if act[v] {
					if float64(N)*ySum[v] > thresholds(v, t) {
						act[v] = false
					} else {
						lastActive[v] = int32(t)
					}
				}
				ySum[v] = 0
			}
			// Fused edge sweep: double x̃_e and accumulate the post-update
			// value into the next round's estimate sums. The doubling of e
			// happens before e's own accumulation and cannot affect earlier
			// edges, so the additions are the same values in the same
			// ascending order as the separate accumulate pass at the top of
			// round t+1 was.
			last := t == T
			for _, e := range locals {
				ed := g.Edges[e]
				if act[ed.U] && act[ed.V] && float64(xw[e]) <= float64(w.r[e])/2 {
					xw[e] *= 2
				}
				if !last {
					ySum[ed.U] += float64(xw[e])
					ySum[ed.V] += float64(xw[e])
				}
			}
		}
		// Scatter activity horizons to the machines that need them, batched
		// per destination in vertex order, into this machine's pre-sized
		// slab region.
		flat := r2Slab[r2Off[mm.ID]:r2Off[mm.ID+1]]
		if len(flat) == 0 {
			return
		}
		a2 := scratch.Get()
		defer scratch.Put(a2)
		cnt := a2.I32(mtot)
		for _, v := range verts {
			for _, h := range vth(v) {
				cnt[h]++
			}
		}
		off := a2.I32Raw(mtot)
		o := int32(0)
		for d := 0; d < mtot; d++ {
			off[d] = o
			o += cnt[d]
		}
		for _, v := range verts {
			for _, h := range vth(v) {
				flat[off[h]] = packVA(v, lastActive[v])
				off[h]++
			}
		}
		o = 0
		for d := 0; d < mtot; d++ {
			if cnt[d] > 0 {
				mm.Send(d, 0, flat[o:o+cnt[d]], int64(cnt[d]))
				o += cnt[d]
			}
		}
	})
	if err := sim.Err(); err != nil {
		return nil, err
	}

	// ---- Round 3: edge holders compute x̃_{e,T} and scatter per-vertex
	// partial sums to vertex homes (v's home is machine v mod mtot).
	// Batches are built and sent in sorted vertex order so that the
	// destination's floating-point accumulation order is deterministic. ----
	sumMsgs := sim.Exchange(func(mm *mpc.Machine) {
		mine := held(mm.ID)
		a2 := scratch.Get()
		defer scratch.Put(a2)
		last := a2.I32(n) // zeroed: unreported vertices default to horizon 0
		for _, msg := range activeMsgs[mm.ID] {
			for _, pk := range msg.Payload.([]int64) {
				last[int32(pk>>32)] = int32(uint32(pk))
			}
		}
		partial := a2.F64Raw(n)
		seen := a2.Bool(n)
		touched := a2.I32Raw(2 * len(mine))[:0]
		for _, e := range mine {
			ed := g.Edges[e]
			horizon := minInt32(last[ed.U], last[ed.V])
			// Doubling a V value is exact in float64 (an exponent bump of a
			// V-representable number), so V(cur) re-stores without rounding
			// and the float64 partials sum exactly the stored values —
			// which is what the round-4 bad-vertex totals must measure.
			cur := float64(x0[e])
			rHalf := float64(w.r[e]) / 2
			for t := int32(1); t <= horizon; t++ {
				if cur <= rHalf {
					cur *= 2
				} else {
					break
				}
			}
			xf := V(cur)
			xFinal[e] = xf
			if !seen[ed.U] {
				seen[ed.U] = true
				partial[ed.U] = 0
				touched = append(touched, ed.U)
			}
			partial[ed.U] += float64(xf)
			if !seen[ed.V] {
				seen[ed.V] = true
				partial[ed.V] = 0
				touched = append(touched, ed.V)
			}
			partial[ed.V] += float64(xf)
		}
		if len(touched) == 0 {
			return
		}
		// Emission must be in ascending vertex order (it fixes the send
		// sequence, hence the delivered byte order). Sorting and rebuilding
		// from the seen bitmap produce the identical list; pick whichever
		// is cheaper — a dense machine rebuilds in O(n) instead of paying
		// the comparison sort.
		if t := len(touched); t > 64 && n < t*bits.Len(uint(t)) {
			touched = touched[:0]
			for v := int32(0); v < int32(n); v++ {
				if seen[v] {
					touched = append(touched, v)
				}
			}
		} else {
			slices.Sort(touched)
		}
		cnt := a2.I32(mtot)
		for _, v := range touched {
			cnt[int(v)%mtot]++
		}
		// Interleaved (vertex, float64-bits) pairs in this machine's
		// pre-sized slab region; words stay one per vertex entry, as
		// before batching.
		flat := r3Slab[2*r3Off[mm.ID] : 2*r3Off[mm.ID+1]]
		off := a2.I32Raw(mtot)
		o := int32(0)
		for d := 0; d < mtot; d++ {
			off[d] = o
			o += cnt[d]
		}
		for _, v := range touched {
			d := int(v) % mtot
			flat[2*off[d]] = int64(v)
			flat[2*off[d]+1] = int64(math.Float64bits(partial[v]))
			off[d]++
		}
		o = 0
		for d := 0; d < mtot; d++ {
			if cnt[d] > 0 {
				mm.Send(d, int64(mm.ID), flat[2*o:2*(o+cnt[d])], int64(cnt[d]))
				o += cnt[d]
			}
		}
	})
	if err := sim.Err(); err != nil {
		return nil, err
	}

	// ---- Round 4: vertex homes detect bad vertices and notify holders. ----
	badMsgs := sim.Exchange(func(mm *mpc.Machine) {
		inbox := sumMsgs[mm.ID]
		entries := 0
		for _, msg := range inbox {
			entries += len(msg.Payload.([]int64)) / 2
		}
		if entries == 0 {
			return
		}
		a2 := scratch.Get()
		defer scratch.Put(a2)
		total := a2.F64Raw(n)
		seen := a2.Bool(n)
		touched := a2.I32Raw(entries)[:0]
		for _, msg := range inbox {
			pk := msg.Payload.([]int64)
			for j := 0; j < len(pk); j += 2 {
				v := int32(pk[j])
				if !seen[v] {
					seen[v] = true
					total[v] = 0
					touched = append(touched, v)
				}
				total[v] += math.Float64frombits(uint64(pk[j+1]))
			}
		}
		const tol = 1e-9
		badVerts := a2.I32Raw(len(touched))[:0]
		for _, v := range touched {
			if total[v] > p.B[v]*(1+tol)+tol {
				badVerts = append(badVerts, v)
			}
		}
		if len(badVerts) == 0 {
			return
		}
		slices.Sort(badVerts)
		tot := 0
		for _, v := range badVerts {
			tot += len(vth(v))
		}
		cnt := a2.I32(mtot)
		for _, v := range badVerts {
			for _, h := range vth(v) {
				cnt[h]++
			}
		}
		flat := make([]int32, tot)
		off := a2.I32Raw(mtot)
		o := int32(0)
		for d := 0; d < mtot; d++ {
			off[d] = o
			o += cnt[d]
		}
		for _, v := range badVerts {
			for _, h := range vth(v) {
				flat[off[h]] = v
				off[h]++
			}
		}
		o = 0
		for d := 0; d < mtot; d++ {
			if cnt[d] > 0 {
				mm.Send(d, int64(mm.ID), flat[o:o+cnt[d]], int64(cnt[d]))
				o += cnt[d]
			}
		}
	})
	if err := sim.Err(); err != nil {
		return nil, err
	}

	// ---- Round 5: holders zero out edges incident to bad vertices. ----
	sim.Round(func(mm *mpc.Machine) {
		if len(badMsgs[mm.ID]) == 0 {
			return
		}
		a2 := scratch.Get()
		defer scratch.Put(a2)
		bad := a2.Bool(n)
		for _, msg := range badMsgs[mm.ID] {
			for _, v := range msg.Payload.([]int32) {
				bad[v] = true
			}
		}
		for _, e := range held(mm.ID) {
			ed := g.Edges[e]
			if bad[ed.U] || bad[ed.V] {
				xFinal[e] = 0
			}
		}
	})

	if err := sim.Err(); err != nil {
		return nil, err
	}

	return &oneRoundOut[V]{
		x:               xFinal,
		n:               N,
		t:               T,
		machines:        mtot,
		maxMachineEdges: maxMachineEdges,
		stats:           sim.Stats(),
	}, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}
