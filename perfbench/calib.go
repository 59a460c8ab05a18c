package main

import (
	"slices"
	"time"
)

// A calibration is a fixed piece of work owned by the benchmark. It calls
// no code of the program, so no change to the program can move it. Timed
// right before a timed block, it measures how fast the host runs at that
// moment, and the block's time is scaled by ref/cal: a slow phase of the
// host that lengthens both cancels out, while a change to the program moves
// the block alone.
//
// The host's speed changes by up to 50% for seconds to minutes at a time,
// and work that runs from memory slows far more than work that runs from
// the core's registers and L1. Each block is therefore scaled by the
// calibration of its own kind: the large instances by a greedy b-matching
// on a graph of their scale, the request-sized instances by the same
// kernel at their scale, and the tiny max/maxw instances by a register-only
// loop.
type calibration struct {
	// ref is the seconds one run takes on the 2-vCPU host the bounds were
	// set on, at its typical speed, so scaled times stay near raw ones.
	ref float64
	run func() float64 // returns a checksum, so the work is not optimised away
}

var (
	calLarge   = calibration{ref: 0.021, run: func() float64 { return greedyKernel(12000, 100000, 1) }}
	calRequest = calibration{ref: 0.0083, run: func() float64 { return greedyKernel(600, 8000, 6) }}
	calCompute = calibration{ref: 0.0101, run: func() float64 { return computeKernel(4_000_000) }}
)

// calSink keeps the checksums alive.
var calSink float64

// scale runs the calibration once and returns the factor by which a time
// measured right after it is multiplied.
func (c calibration) scale() float64 {
	t0 := time.Now()
	calSink += c.run()
	return c.ref / time.Since(t0).Seconds()
}

// xorshift is the calibration kernels' fixed pseudo-random stream.
func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// greedyKernel builds a fixed random graph of n vertices and m weighted
// edges, sorts the edges by weight, builds its adjacency arrays, matches
// greedily under budget 3 and sweeps the adjacency, reps times: the
// allocation, sorting and gather pattern of the solvers at that scale.
func greedyKernel(n, m, reps int) float64 {
	type edge struct {
		u, v int32
		w    float64
	}
	sum := 0.0
	for r := 0; r < reps; r++ {
		x := uint64(88172645463325252)
		es := make([]edge, m)
		for i := range es {
			x = xorshift(x)
			u := int32(x % uint64(n))
			x = xorshift(x)
			es[i] = edge{u, int32(x % uint64(n)), float64(x>>11) / (1 << 53)}
		}
		slices.SortFunc(es, func(a, b edge) int {
			switch {
			case a.w > b.w:
				return -1
			case a.w < b.w:
				return 1
			}
			return 0
		})
		start := make([]int32, n+1)
		for _, e := range es {
			start[e.u+1]++
			start[e.v+1]++
		}
		for v := 1; v <= n; v++ {
			start[v] += start[v-1]
		}
		adj := make([]int32, 2*m)
		pos := slices.Clone(start[:n])
		for i, e := range es {
			adj[pos[e.u]] = int32(i)
			pos[e.u]++
			adj[pos[e.v]] = int32(i)
			pos[e.v]++
		}
		load := make([]int32, n)
		for _, e := range es {
			if e.u != e.v && load[e.u] < 3 && load[e.v] < 3 {
				load[e.u]++
				load[e.v]++
				sum += e.w
			}
		}
		for v := 0; v < n; v++ {
			for _, id := range adj[start[v]:start[v+1]] {
				sum += es[id].w * float64(load[v])
			}
		}
	}
	return sum
}

// computeKernel is n steps of a register-only integer and float loop.
func computeKernel(n int) float64 {
	x, s := uint64(1), 0.0
	for i := 0; i < n; i++ {
		x = xorshift(x)
		s += float64(x>>40) * 1e-3
	}
	return s
}
