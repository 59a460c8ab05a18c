// Package augment implements Section 4 of the paper: the (1+ε)
// approximation of unweighted b-matchings via short augmenting walks. Its
// pieces are
//
//   - the Decompress/Compress operations (Definitions 4.2/4.3, Figure 1)
//     that view a b-matching on V as a 1-matching on a copy set V',
//   - the matched-copy assignment of Lemma 4.7 (both a local version and an
//     MPC version running on the simulator with sort/prefix-sum primitives),
//   - the H-construction of Section 4.2 proving short augmenting walks
//     exist, used by the structural tests,
//   - random layered graphs and the McGregor-style layer-by-layer path
//     growing with the Compress trick of Section 4.4, and
//   - the (1+ε) driver of Lemma 4.6.
package augment

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/mpc"
	"repro/internal/scratch"
)

// Copy identifies the Idx-th copy of vertex V in Decompress(V, b);
// 0 ≤ Idx < b_V.
type Copy struct {
	V   int32
	Idx int32
}

// Decompress returns the copy set of Definition 4.2: b_v copies of each
// vertex v, in vertex order.
func Decompress(b graph.Budgets) []Copy {
	out := make([]Copy, 0, b.Sum())
	for v, bv := range b {
		for i := 0; i < bv; i++ {
			out = append(out, Copy{V: int32(v), Idx: int32(i)})
		}
	}
	return out
}

// Compress returns the distinct vertices underlying a copy set
// (Definition 4.3), in first-appearance order.
func Compress(copies []Copy) []int32 {
	seen := make(map[int32]bool, len(copies))
	var out []int32
	for _, c := range copies {
		if !seen[c.V] {
			seen[c.V] = true
			out = append(out, c.V)
		}
	}
	return out
}

// SlotAssignment gives, for each matched edge e = {u,v}, the copy indices
// SlotU[e] < b_u and SlotV[e] < b_v it is placed between, such that no copy
// receives more than one matched edge (the Section 4.2 requirement for
// Step (B)). Entries for unmatched edges are -1.
type SlotAssignment struct {
	SlotU, SlotV []int32
}

// AssignSlots computes a slot assignment locally: each vertex numbers its
// matched edges 0,1,2,... in edge-id order. Since the matched degree of v is
// at most b_v, every matched edge gets a valid copy at both endpoints.
func AssignSlots(m *matching.BMatching) SlotAssignment {
	g := m.Graph()
	ar, done := scratch.Borrow(nil)
	defer done()
	next := ar.I32(g.N) // slot cursors are scratch; SlotU/SlotV escape
	sa := SlotAssignment{
		SlotU: make([]int32, g.M()),
		SlotV: make([]int32, g.M()),
	}
	for e := range sa.SlotU {
		sa.SlotU[e], sa.SlotV[e] = -1, -1
	}
	for e := 0; e < g.M(); e++ {
		if !m.Contains(int32(e)) {
			continue
		}
		ed := g.Edges[e]
		sa.SlotU[e] = next[ed.U]
		next[ed.U]++
		sa.SlotV[e] = next[ed.V]
		next[ed.V]++
	}
	return sa
}

// AssignSlotsMPC computes the same slot assignment as AssignSlots on the
// MPC simulator, following Lemma 4.7: the (vertex, edge) pairs of matched
// edges are sorted by vertex (sample-sort), a distributed prefix sum
// numbers each vertex's pairs, and per-vertex bases are subtracted so each
// pair learns its rank within its vertex. It costs O(1) simulator rounds
// with O(n^δ)-sized shards; the returned stats let experiment tests verify
// the round count. workers is the simulator's worker-pool width
// (0 = GOMAXPROCS); the assignment and stats are identical for every width.
func AssignSlotsMPC(m *matching.BMatching, machines, workers int) (SlotAssignment, mpc.Stats) {
	g := m.Graph()
	if machines < 2 {
		machines = 2
	}
	sim := mpc.NewSimWithWorkers(machines, workers)

	// Build (vertex, edge) pairs for matched edges; initial layout is
	// arbitrary (pair p starts at machine p mod machines).
	type pair struct {
		V, E int32
	}
	var pairs []pair
	for e := 0; e < g.M(); e++ {
		if !m.Contains(int32(e)) {
			continue
		}
		ed := g.Edges[e]
		pairs = append(pairs, pair{V: ed.U, E: int32(e)}, pair{V: ed.V, E: int32(e)})
	}
	start := make([][]pair, machines)
	for i, p := range pairs {
		start[i%machines] = append(start[i%machines], p)
	}

	// Route pairs to their vertex's range owner (one shuffle round); the
	// range partition by vertex id plays the role of the GSZ11 sort since
	// keys are already integers in [0, n).
	owner := func(v int32) int {
		return int(int64(v) * int64(machines) / int64(g.N))
	}
	shards := mpc.Shuffle(sim, start,
		func(p pair) int { return owner(p.V) },
		func(p pair) int64 { return int64(p.V)<<32 | int64(p.E) },
		func(pair) int64 { return 1 },
	)

	// Each machine numbers its pairs locally per vertex; because all pairs
	// of a vertex land on one machine and arrive sorted by (V, E), local
	// numbering is globally correct. (The distributed prefix sum of Lemma
	// 4.7 is exercised to account its rounds, as the paper's version needs
	// it when a vertex's pairs span machines.)
	counts := make([][]int64, machines)
	for i, shard := range shards {
		counts[i] = make([]int64, len(shard))
		for j := range shard {
			counts[i][j] = 1
		}
	}
	mpc.PrefixSums(sim, counts)

	sa := SlotAssignment{
		SlotU: make([]int32, g.M()),
		SlotV: make([]int32, g.M()),
	}
	for e := range sa.SlotU {
		sa.SlotU[e], sa.SlotV[e] = -1, -1
	}
	for _, shard := range shards {
		// Local sort by (V, E): the shuffle delivers in (sender, key) order,
		// so pairs of one vertex may arrive interleaved across senders.
		sort.Slice(shard, func(i, j int) bool {
			if shard[i].V != shard[j].V {
				return shard[i].V < shard[j].V
			}
			return shard[i].E < shard[j].E
		})
		var curV int32 = -1
		var rank int32
		for _, p := range shard {
			if p.V != curV {
				curV = p.V
				rank = 0
			}
			ed := g.Edges[p.E]
			if ed.U == p.V {
				sa.SlotU[p.E] = rank
			} else {
				sa.SlotV[p.E] = rank
			}
			rank++
		}
	}
	return sa, sim.Stats()
}
