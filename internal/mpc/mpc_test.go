package mpc

import (
	"sort"
	"testing"
)

func TestRoundDeliversMessages(t *testing.T) {
	s := NewSimWithWorkers(4, 0)
	// Every machine sends its id to machine 0.
	s.Round(func(m *Machine) {
		m.Send(0, int64(m.ID), m.ID, 1)
	})
	var got []int
	s.Round(func(m *Machine) {
		if m.ID != 0 {
			if len(m.Recv()) != 0 {
				t.Errorf("machine %d unexpectedly received messages", m.ID)
			}
			return
		}
		for _, msg := range m.Recv() {
			got = append(got, msg.Payload.(int))
		}
	})
	if len(got) != 4 {
		t.Fatalf("machine 0 received %d messages, want 4", len(got))
	}
	if !sort.IntsAreSorted(got) {
		t.Fatalf("delivery order not deterministic by sender: %v", got)
	}
	if s.Stats().Rounds != 2 {
		t.Fatalf("rounds = %d, want 2", s.Stats().Rounds)
	}
}

func TestTrafficAccounting(t *testing.T) {
	s := NewSimWithWorkers(3, 0)
	s.Round(func(m *Machine) {
		if m.ID == 1 {
			m.Send(2, 0, "x", 10)
			m.Send(0, 0, "y", 5)
		}
	})
	st := s.Stats()
	if st.TotalTraffic != 15 {
		t.Fatalf("total traffic = %d, want 15", st.TotalTraffic)
	}
	if st.MaxRoundIO != 15 {
		t.Fatalf("max round IO = %d, want 15 (sender)", st.MaxRoundIO)
	}
}

func TestChargeRelease(t *testing.T) {
	s := NewSimWithWorkers(2, 0)
	s.Round(func(m *Machine) {
		if m.ID == 0 {
			m.Charge(100)
		}
	})
	if s.ResidentHighWater() != 100 {
		t.Fatalf("resident = %d", s.ResidentHighWater())
	}
	s.Round(func(m *Machine) {
		if m.ID == 0 {
			m.Release(60)
		}
	})
	if s.ResidentHighWater() != 40 {
		t.Fatalf("resident after release = %d", s.ResidentHighWater())
	}
	if s.Stats().MaxMachineWords < 100 {
		t.Fatalf("high-water mark lost: %d", s.Stats().MaxMachineWords)
	}
}

func TestSendPanicsOutOfRange(t *testing.T) {
	s := NewSimWithWorkers(2, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Round(func(m *Machine) {
		if m.ID == 0 {
			m.Send(7, 0, nil, 1)
		}
	})
}

func TestExchangeReturnsAndConsumes(t *testing.T) {
	s := NewSimWithWorkers(2, 0)
	out := s.Exchange(func(m *Machine) {
		m.Send(1-m.ID, 0, m.ID, 1)
	})
	if len(out[0]) != 1 || len(out[1]) != 1 {
		t.Fatalf("exchange delivery wrong: %d/%d", len(out[0]), len(out[1]))
	}
	// Next round should see empty inboxes.
	s.Round(func(m *Machine) {
		if len(m.Recv()) != 0 {
			t.Errorf("inbox not consumed")
		}
	})
}

func TestPrefixSums(t *testing.T) {
	s := NewSimWithWorkers(3, 0)
	vals := [][]int64{{1, 2, 3}, {}, {4, 5}}
	got := PrefixSums(s, vals)
	want := [][]int64{{0, 1, 3}, {}, {6, 10}}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("machine %d: got %v want %v", i, got[i], want[i])
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("machine %d: got %v want %v", i, got[i], want[i])
			}
		}
	}
	if s.Stats().Rounds != 2 {
		t.Fatalf("prefix sums used %d rounds, want 2", s.Stats().Rounds)
	}
}

func TestShuffle(t *testing.T) {
	s := NewSimWithWorkers(4, 0)
	items := [][]int{{1, 5, 9}, {2, 6}, {3}, {4, 8, 12}}
	got := Shuffle(s, items,
		func(x int) int { return x % 4 },
		func(x int) int64 { return int64(x) },
		func(int) int64 { return 1 },
	)
	for mach, xs := range got {
		for _, x := range xs {
			if x%4 != mach {
				t.Fatalf("item %d delivered to machine %d", x, mach)
			}
		}
	}
	if s.Stats().Rounds != 1 {
		t.Fatalf("shuffle used %d rounds, want 1", s.Stats().Rounds)
	}
	total := 0
	for _, xs := range got {
		total += len(xs)
	}
	if total != 9 {
		t.Fatalf("lost items: %d of 9", total)
	}
}

func TestSortInt64(t *testing.T) {
	s := NewSimWithWorkers(4, 0)
	vals := [][]int64{{9, 1, 7}, {3, 3, 100}, {}, {2, 50, 4, 6}}
	got := SortInt64(s, vals)
	var flat []int64
	for _, xs := range got {
		// Each machine's range must itself be sorted.
		for j := 1; j < len(xs); j++ {
			if xs[j-1] > xs[j] {
				t.Fatal("machine range not sorted")
			}
		}
		flat = append(flat, xs...)
	}
	if len(flat) != 10 {
		t.Fatalf("lost values: %d of 10", len(flat))
	}
	for j := 1; j < len(flat); j++ {
		if flat[j-1] > flat[j] {
			t.Fatalf("global order broken: %v", flat)
		}
	}
	if s.Stats().Rounds != 3 {
		t.Fatalf("sort used %d rounds, want 3", s.Stats().Rounds)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []int64 {
		s := NewSimWithWorkers(5, 0)
		vals := make([][]int64, 5)
		for i := range vals {
			for j := 0; j < 20; j++ {
				vals[i] = append(vals[i], int64((i*37+j*13)%41))
			}
		}
		out := SortInt64(s, vals)
		var flat []int64
		for _, xs := range out {
			flat = append(flat, xs...)
		}
		return flat
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("distributed sort nondeterministic")
		}
	}
}

func TestSearchInt64Predecessor(t *testing.T) {
	s := NewSimWithWorkers(4, 0)
	// A distributed sorted sequence as SortInt64 would produce it.
	shards := [][]int64{{1, 3, 5}, {7, 9}, {}, {11, 20, 30}}
	queries := []int64{0, 1, 4, 8, 10, 25, 100}
	got := SearchInt64(s, shards, queries)
	want := []int64{mathMinInt64(), 1, 3, 7, 9, 20, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("query %d: got %d, want %d", queries[i], got[i], want[i])
		}
	}
	if s.Stats().Rounds != 2 {
		t.Fatalf("search used %d rounds, want 2", s.Stats().Rounds)
	}
}

func TestSearchAfterSort(t *testing.T) {
	s := NewSimWithWorkers(5, 0)
	vals := make([][]int64, 5)
	for i := range vals {
		for j := 0; j < 30; j++ {
			vals[i] = append(vals[i], int64((i*31+j*17)%101))
		}
	}
	shards := SortInt64(s, vals)
	queries := []int64{-5, 0, 50, 100, 200}
	got := SearchInt64(s, shards, queries)
	// Reference: flatten and search.
	var flat []int64
	for _, sh := range shards {
		flat = append(flat, sh...)
	}
	for i, qv := range queries {
		want := mathMinInt64()
		for _, v := range flat {
			if v <= qv && v > want {
				want = v
			}
		}
		if got[i] != want {
			t.Fatalf("query %d: got %d want %d", qv, got[i], want)
		}
	}
}

func mathMinInt64() int64 { return -9223372036854775808 }
