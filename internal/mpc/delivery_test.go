package mpc

import (
	"runtime"
	"testing"
)

// trafficRound sends a deterministic pseudo-random burst from every
// machine: colliding (sender, key) pairs, zero-word and multi-word
// messages, and skewed destinations, exercising the sharded delivery and
// the (sender, key, seq) total order.
func trafficRound(round int) func(m *Machine) {
	return func(m *Machine) {
		n := m.sim.Machines()
		burst := 3 + (m.ID+round)%5
		for j := 0; j < burst; j++ {
			to := (m.ID*7 + round*3 + j*j) % n
			key := int64((j + round) % 3) // few keys -> many ties per sender
			m.Send(to, key, [2]int{m.ID, j}, int64(j%4))
		}
	}
}

type transcript struct {
	rounds [][][]Message // per round, per machine, delivered messages
	stats  Stats
}

func runTranscript(workers, machines, rounds int) transcript {
	s := NewSimWithWorkers(machines, workers)
	var tr transcript
	for round := 0; round < rounds; round++ {
		out := s.Exchange(trafficRound(round))
		tr.rounds = append(tr.rounds, out)
	}
	tr.stats = s.Stats()
	return tr
}

// TestDeterministicAcrossWorkers is the cross-worker-count determinism
// harness: the full delivery transcript (every message, in order, on every
// machine, every round) and the Stats must be identical for workers = 1,
// 4, and GOMAXPROCS.
func TestDeterministicAcrossWorkers(t *testing.T) {
	const machines, rounds = 23, 8
	ref := runTranscript(1, machines, rounds)
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		got := runTranscript(workers, machines, rounds)
		if got.stats != ref.stats {
			t.Fatalf("workers=%d: stats %+v != workers=1 stats %+v", workers, got.stats, ref.stats)
		}
		for r := range ref.rounds {
			for mach := range ref.rounds[r] {
				a, b := ref.rounds[r][mach], got.rounds[r][mach]
				if len(a) != len(b) {
					t.Fatalf("workers=%d round %d machine %d: %d msgs, want %d", workers, r, mach, len(b), len(a))
				}
				for i := range a {
					if a[i].From != b[i].From || a[i].Key != b[i].Key || a[i].Seq != b[i].Seq ||
						a[i].Words != b[i].Words || a[i].Payload != b[i].Payload {
						t.Fatalf("workers=%d round %d machine %d msg %d: got %+v, want %+v",
							workers, r, mach, i, b[i], a[i])
					}
				}
			}
		}
	}
}

// TestSeqOrdersEqualKeys pins the satellite fix: messages with equal
// (sender, key) carry explicit Seq values and are delivered in send order
// because the sort compares Seq, not because the sort happens to be
// stable.
func TestSeqOrdersEqualKeys(t *testing.T) {
	s := NewSimWithWorkers(2, 0)
	s.Round(func(m *Machine) {
		if m.ID == 1 {
			for j := 0; j < 10; j++ {
				m.Send(0, 42, j, 1) // identical key every time
			}
		}
	})
	s.Round(func(m *Machine) {
		if m.ID != 0 {
			return
		}
		if len(m.Recv()) != 10 {
			t.Errorf("got %d messages, want 10", len(m.Recv()))
		}
		for j, msg := range m.Recv() {
			if msg.Seq != int64(j) {
				t.Errorf("msg %d: Seq = %d, want %d", j, msg.Seq, j)
			}
			if msg.Payload.(int) != j {
				t.Errorf("msg %d: payload %v out of send order", j, msg.Payload)
			}
		}
	})
}

func TestChargeRoundsCountsRounds(t *testing.T) {
	s := NewSimWithWorkers(2, 0)
	s.Round(func(m *Machine) {})
	s.ChargeRounds(3)
	if got := s.Stats().Rounds; got != 4 {
		t.Fatalf("rounds = %d, want 4 (1 simulated + 3 charged)", got)
	}
}

// TestExchangeConsumesInbox verifies the documented Exchange contract: the
// delivered messages are returned and the next round starts with empty
// inboxes.
func TestExchangeConsumesInbox(t *testing.T) {
	s := NewSimWithWorkers(3, 0)
	out := s.Exchange(func(m *Machine) {
		m.Send((m.ID+1)%3, 0, m.ID, 2)
	})
	for i := range out {
		if len(out[i]) != 1 {
			t.Fatalf("machine %d: %d messages, want 1", i, len(out[i]))
		}
	}
	s.Round(func(m *Machine) {
		if len(m.Recv()) != 0 {
			t.Errorf("machine %d inbox not consumed by Exchange", m.ID)
		}
	})
}

// TestExchangeSlicesAreCallerOwned guards the buffer-reuse design: slices
// returned by Exchange must never be recycled into later rounds' inboxes,
// even after many subsequent deliveries overwrite pooled buffers.
func TestExchangeSlicesAreCallerOwned(t *testing.T) {
	s := NewSimWithWorkers(4, 0)
	out := s.Exchange(func(m *Machine) {
		for j := 0; j < 6; j++ {
			m.Send((m.ID+j)%4, int64(j), 1000*m.ID+j, 1)
		}
	})
	want := make([][]Message, len(out))
	for i := range out {
		want[i] = append([]Message(nil), out[i]...)
	}
	for round := 0; round < 5; round++ {
		s.Round(trafficRound(round))
	}
	for i := range out {
		for j := range out[i] {
			if out[i][j] != want[i][j] {
				t.Fatalf("machine %d msg %d: exchanged slice was overwritten: %+v != %+v",
					i, j, out[i][j], want[i][j])
			}
		}
	}
}

// TestResidentHighWaterIncludesInbox: MaxMachineWords must account for the
// delivered inbox on top of resident state.
func TestResidentHighWaterIncludesInbox(t *testing.T) {
	s := NewSimWithWorkers(2, 0)
	s.Round(func(m *Machine) {
		if m.ID == 1 {
			m.Charge(10)
		}
		if m.ID == 0 {
			m.Send(1, 0, "x", 7)
		}
	})
	if got := s.Stats().MaxMachineWords; got != 17 {
		t.Fatalf("MaxMachineWords = %d, want 17 (10 resident + 7 inbox)", got)
	}
	if got := s.ResidentHighWater(); got != 10 {
		t.Fatalf("ResidentHighWater = %d, want 10 (undelivered traffic excluded)", got)
	}
}

// TestReleasePanicsOnOverRelease pins the satellite fix: over-releasing is
// an accounting bug and must fail loudly instead of clamping to zero.
func TestReleasePanicsOnOverRelease(t *testing.T) {
	s := NewSimWithWorkers(2, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative resident words")
		}
	}()
	s.Round(func(m *Machine) {
		if m.ID == 0 {
			m.Charge(5)
			m.Release(6)
		}
	})
}

// TestChargePanicsOnNegative pins the symmetric invariant: a negative
// charge is a disguised release and must not silently deflate the
// MaxMachineWords observable.
func TestChargePanicsOnNegative(t *testing.T) {
	s := NewSimWithWorkers(2, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative charge")
		}
	}()
	s.Round(func(m *Machine) {
		if m.ID == 0 {
			m.Charge(-1)
		}
	})
}

func TestNewSimWithWorkersAccessors(t *testing.T) {
	s := NewSimWithWorkers(8, 3)
	if s.Machines() != 8 || s.Workers() != 3 {
		t.Fatalf("machines/workers = %d/%d, want 8/3", s.Machines(), s.Workers())
	}
	if w := NewSimWithWorkers(2, 64).Workers(); w != 2 {
		t.Fatalf("workers not capped at machine count: %d", w)
	}
	if w := NewSimWithWorkers(4, 0).Workers(); w < 1 {
		t.Fatalf("default workers = %d", w)
	}
}

// TestPrimitivesDeterministicAcrossWorkers runs the GSZ11-style sort on
// simulators with different worker counts and compares outputs and stats.
func TestPrimitivesDeterministicAcrossWorkers(t *testing.T) {
	build := func() [][]int64 {
		vals := make([][]int64, 6)
		for i := range vals {
			for j := 0; j < 40; j++ {
				vals[i] = append(vals[i], int64((i*131+j*37)%97))
			}
		}
		return vals
	}
	s1 := NewSimWithWorkers(6, 1)
	ref := SortInt64(s1, build())
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		sn := NewSimWithWorkers(6, workers)
		got := SortInt64(sn, build())
		if sn.Stats() != s1.Stats() {
			t.Fatalf("workers=%d: stats diverged: %+v vs %+v", workers, sn.Stats(), s1.Stats())
		}
		for i := range ref {
			if len(got[i]) != len(ref[i]) {
				t.Fatalf("workers=%d: shard %d sizes differ", workers, i)
			}
			for j := range ref[i] {
				if got[i][j] != ref[i][j] {
					t.Fatalf("workers=%d: shard %d diverged", workers, i)
				}
			}
		}
	}
}

// TestReleasePanicsOnNegativeAmount mirrors the Charge invariant: a
// negative release is a disguised charge.
func TestReleasePanicsOnNegativeAmount(t *testing.T) {
	s := NewSimWithWorkers(1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative release amount")
		}
	}()
	s.Round(func(m *Machine) {
		m.Charge(5)
		m.Release(-1)
	})
}
