// A constant-round MPC sort in the style of Goodrich–Sitchinava–Zhang
// (GSZ11), the primitive weighted.ResolveWithinMPC (Lemma 5.7) builds on. It
// is built from Sim rounds, so its round cost shows up in the simulator's
// accounting.
package mpc

import "sort"

// SortInt64 performs a distributed sort of per-machine int64 slices using
// range partitioning (sample-sort): a coordinator gathers samples, picks
// splitters, machines route values by range, and each machine sorts its
// range locally. Costs 3 rounds, matching the GSZ11 O(1)-round sort. The
// result is globally sorted across machines: machine 0 holds the smallest
// range.
func SortInt64(s *Sim, vals [][]int64) [][]int64 {
	n := s.Machines()
	const samplesPerMachine = 8

	// Round 1: machines send local quantiles to the coordinator. The local
	// copy is sorted first so the samples are true quantiles — evenly
	// spaced raw positions can alias with periodic input layouts and yield
	// splitters that miss entire key ranges.
	atCoord := s.Exchange(func(m *Machine) {
		if len(vals[m.ID]) == 0 {
			return
		}
		local := append([]int64(nil), vals[m.ID]...)
		sort.Slice(local, func(i, j int) bool { return local[i] < local[j] })
		step := len(local)/samplesPerMachine + 1
		for i := 0; i < len(local); i += step {
			m.Send(0, local[i], local[i], 1)
		}
	})
	samples := make([]int64, 0, len(atCoord[0]))
	for _, msg := range atCoord[0] {
		samples = append(samples, msg.Payload.(int64))
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })

	// Round 2: coordinator broadcasts n-1 splitters.
	sp := make([]int64, 0, n-1)
	for i := 1; i < n && len(samples) > 0; i++ {
		idx := i * len(samples) / n
		if idx >= len(samples) {
			idx = len(samples) - 1
		}
		sp = append(sp, samples[idx])
	}
	bcast := s.Exchange(func(m *Machine) {
		if m.ID != 0 {
			return
		}
		for i := 0; i < n; i++ {
			m.Send(i, 0, sp, int64(len(sp)))
		}
	})
	_ = bcast

	// Round 3: route each value to its range owner; owners sort locally.
	routed := s.Exchange(func(m *Machine) {
		for _, v := range vals[m.ID] {
			dst := sort.Search(len(sp), func(i int) bool { return sp[i] > v })
			if dst >= n {
				dst = n - 1
			}
			m.Send(dst, v, v, 1)
		}
	})
	out := make([][]int64, n)
	for i, msgs := range routed {
		local := make([]int64, 0, len(msgs))
		for _, msg := range msgs {
			local = append(local, msg.Payload.(int64))
		}
		sort.Slice(local, func(a, b int) bool { return local[a] < local[b] })
		out[i] = local
	}
	return out
}
