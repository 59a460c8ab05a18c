// The MPC implementation of conflict resolution (Lemma 5.7): every
// candidate walk emits one claim tuple per resource it needs — one per edge
// (capacity 1) and one per free budget slot it consumes at a walk endpoint
// (capacity = residual budget of that vertex, honoring the paper's footnote
// that up to b_v augmentations may pass through v). Tuples are globally
// sorted by (resource, priority) with the range-partitioned GSZ11-style
// sort, so a resource with many claimants — say a hub vertex touched by
// thousands of walks — spans several machines instead of concentrating on
// one. Per-machine memory is ~(total tuples)/machines + O(machines)
// boundary summaries, which is the O(n^δ) scalability the paper contrasts
// with the gather-everything baseline (experiment E9).
//
// A candidate survives iff every one of its claims ranks within its
// resource's capacity; survivors are finally validated jointly (defensive —
// rank-based selection already guarantees joint applicability at
// vertex-slot granularity).
package weighted

import (
	"sort"

	"repro/internal/matching"
	"repro/internal/mpc"
)

const prioBits = 20 // up to 2^20 candidates per resolution batch

// ResolveWithinMPC resolves conflicts among candidates on the MPC
// simulator and returns the surviving candidates plus the simulator stats
// (whose MaxMachineWords is experiment E9's observable). workers is the
// simulator's worker-pool width (0 = GOMAXPROCS); survivors and stats are
// identical for every width.
func ResolveWithinMPC(cands []Candidate, m *matching.BMatching, machines, workers int) ([]Candidate, mpc.Stats) {
	if machines < 2 {
		machines = 2
	}
	sim := mpc.NewSimWithWorkers(machines, workers)
	if len(cands) == 0 || len(cands) >= 1<<prioBits {
		if len(cands) == 0 {
			return nil, sim.Stats()
		}
		// Over the packing limit: fall back to the sequential resolver.
		return resolveSequentialFallback(cands, m), sim.Stats()
	}

	// Priority order: higher gain first, then index (deterministic).
	order := make([]int32, len(cands))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := cands[order[a]], cands[order[b]]
		if ca.Gain != cb.Gain {
			return ca.Gain > cb.Gain
		}
		return order[a] < order[b]
	})
	prio := make([]int32, len(cands)) // candidate -> priority rank
	for rank, ci := range order {
		prio[ci] = int32(rank)
	}

	// Resource keys: edges get key 2e, vertex slots key 2v+1 shifted past
	// edge keys. Capacity per key:
	g := m.Graph()
	vertexKey := func(v int32) int64 { return int64(g.M()) + int64(v) }
	edgeKey := func(e int32) int64 { return int64(e) }
	capacity := func(key int64) int {
		if key < int64(g.M()) {
			return 1
		}
		return m.Residual(int32(key - int64(g.M())))
	}

	// Build claim tuples per candidate, laid out round-robin (the arbitrary
	// initial distribution of the MPC input).
	type claim struct {
		key  int64
		cand int32
	}
	perMachine := make([][]int64, machines) // packed: key<<prioBits | prio
	unpackCand := make(map[int64]int32)     // packed -> candidate (driver-side routing table)
	for ci, c := range cands {
		home := ci % machines
		emit := func(key int64) {
			packed := key<<prioBits | int64(prio[ci])
			perMachine[home] = append(perMachine[home], packed)
			unpackCand[packed] = int32(ci)
		}
		for _, e := range c.Walk.EdgeIDs {
			emit(edgeKey(e))
		}
		// Endpoint slots: +1 net degree at a vertex means one slot claim.
		vs, err := c.Walk.Vertices(m)
		if err != nil {
			continue
		}
		delta := map[int32]int{}
		for i, e := range c.Walk.EdgeIDs {
			d := 1
			if m.Contains(e) {
				d = -1
			}
			delta[vs[i]] += d
			delta[vs[i+1]] += d
		}
		for _, v := range sortedKeys(delta) {
			for k := 0; k < delta[v]; k++ {
				emit(vertexKey(v))
			}
		}
	}

	// Distributed sort by (resource, priority): range partitioning spreads
	// hot resources across machines.
	sorted := mpc.SortInt64(sim, perMachine)

	// Boundary summaries: machine i reports (firstKey, firstCount, lastKey,
	// lastCount) to the coordinator, which chains run-bases across machine
	// boundaries (runs are contiguous after the sort).
	type summary struct {
		first, last       int64
		cntFirst, cntLast int64
		total             int
	}
	sums := make([]summary, machines)
	for i, shard := range sorted {
		if len(shard) == 0 {
			sums[i] = summary{first: -1, last: -1}
			continue
		}
		fk := shard[0] >> prioBits
		lk := shard[len(shard)-1] >> prioBits
		var cf, cl int64
		for _, p := range shard {
			if p>>prioBits == fk {
				cf++
			}
			if p>>prioBits == lk {
				cl++
			}
		}
		sums[i] = summary{first: fk, last: lk, cntFirst: cf, cntLast: cl, total: len(shard)}
	}
	// One round: summaries to coordinator; one round: bases back. (Modeled
	// through the simulator for accounting.)
	sim.Round(func(mm *mpc.Machine) {
		mm.Send(0, int64(mm.ID), sums[mm.ID], 4)
	})
	base := make([]int64, machines) // rank offset for machine i's first run
	{
		var runKey int64 = -2
		var runCount int64
		for i := 0; i < machines; i++ {
			s := sums[i]
			if s.first == -1 {
				continue
			}
			if s.first == runKey {
				base[i] = runCount
			} else {
				base[i] = 0
				runCount = 0
			}
			if s.first == s.last {
				runCount += int64(s.total)
			} else {
				runCount = s.cntLast
			}
			runKey = s.last
		}
	}
	sim.Round(func(mm *mpc.Machine) {
		if mm.ID == 0 {
			for i := 0; i < machines; i++ {
				mm.Send(i, 0, base[i], 1)
			}
		}
	})

	// Each machine ranks its local tuples within their runs and flags the
	// candidates whose claim overflows the resource capacity. Per-machine
	// flag lists are merged after the round (each machine writes only its
	// own slot — race-free).
	overflow := make([][]int32, machines)
	sim.Round(func(mm *mpc.Machine) {
		shard := sorted[mm.ID]
		mm.Charge(int64(len(shard)))
		var lastKey int64 = -1
		var rank int64
		for _, packed := range shard {
			key := packed >> prioBits
			if key != lastKey {
				lastKey = key
				rank = 0
				if key == sums[mm.ID].first {
					rank = base[mm.ID]
				}
			}
			if rank >= int64(capacity(key)) {
				overflow[mm.ID] = append(overflow[mm.ID], unpackCand[packed])
			}
			rank++
		}
	})
	flagged := make([]bool, len(cands))
	for _, local := range overflow {
		for _, ci := range local {
			flagged[ci] = true
		}
	}

	// Survivors, with a final joint-applicability guard.
	scratch := m.Clone()
	var kept []Candidate
	for _, ci := range order { // priority order
		c := cands[ci]
		if flagged[ci] || c.Gain <= 0 {
			continue
		}
		if err := c.Walk.Apply(scratch); err != nil {
			continue
		}
		kept = append(kept, c)
	}
	return kept, sim.Stats()
}

func resolveSequentialFallback(cands []Candidate, m *matching.BMatching) []Candidate {
	scratch := m.Clone()
	var kept []Candidate
	for _, c := range cands {
		if c.Gain <= 0 {
			continue
		}
		if err := c.Walk.Apply(scratch); err == nil {
			kept = append(kept, c)
		}
	}
	return kept
}

func sortedKeys(m map[int32]int) []int32 {
	out := make([]int32, 0, len(m))
	//lint:sorted this is the collect-and-sort idiom itself; callers iterate the sorted result
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
