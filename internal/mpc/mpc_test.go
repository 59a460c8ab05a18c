package mpc

import (
	"sort"
	"testing"
)

func TestRoundDeliversMessages(t *testing.T) {
	s := NewSimWithWorkers(4, 0)
	// Every machine sends its id to machine 0.
	out := s.Exchange(func(m *Machine) {
		m.Send(0, int64(m.ID), m.ID, 1)
	})
	for id, inbox := range out[1:] {
		if len(inbox) != 0 {
			t.Errorf("machine %d unexpectedly received messages", id+1)
		}
	}
	var got []int
	for _, msg := range out[0] {
		got = append(got, msg.Payload.(int))
	}
	if len(got) != 4 {
		t.Fatalf("machine 0 received %d messages, want 4", len(got))
	}
	if !sort.IntsAreSorted(got) {
		t.Fatalf("delivery order not deterministic by sender: %v", got)
	}
	if s.Stats().Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", s.Stats().Rounds)
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
	// The next superstep must not deliver them again.
	for i, inbox := range s.Exchange(func(m *Machine) {}) {
		if len(inbox) != 0 {
			t.Errorf("machine %d: inbox not consumed", i)
		}
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

// ResidentHighWater returns the current maximum resident words across
// machines (excluding undelivered traffic).
func (s *Sim) ResidentHighWater() int64 {
	var max int64
	for _, r := range s.resident {
		if r > max {
			max = r
		}
	}
	return max
}
