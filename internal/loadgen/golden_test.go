package loadgen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// scheduleHash is a SHA-256 over the fields of each shot that a replay
// posts, written one by one so that adding or removing other fields of
// Shot cannot move it.
func scheduleHash(shots []Shot) string {
	h := sha256.New()
	var buf [8]byte
	putInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	putBool := func(v bool) {
		b := byte(0)
		if v {
			b = 1
		}
		h.Write([]byte{b})
	}
	for _, s := range shots {
		putInt(int64(s.At))
		putInt(int64(s.Corpus))
		putInt(int64(len(s.Algo)))
		h.Write([]byte(s.Algo))
		putInt(s.Seed)
		putBool(s.Async)
		putBool(s.Cancel)
		putInt(int64(s.CancelAfter))
		putInt(int64(s.Timeout))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestScheduleGolden pins the schedules the committed workloads replay:
// BENCH_LOADGEN.json's, and the ones perfbench builds for its serving
// workloads (a 30 s window; buildServeInputs asks for 25% more arrivals
// than the rate needs, plus 64) and for its request-sized solves. A change
// to BuildSchedule's arithmetic or draw order moves these hashes, and with
// them every committed measurement.
func TestScheduleGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_LOADGEN.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Corpus   []FamilySpec `json:"corpus"`
		Workload Spec         `json:"workload"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	smoke := file.Workload
	for _, f := range file.Corpus {
		smoke.CorpusSize += f.Count
	}

	// perfbench's serveMix.
	serveMix := []MixEntry{
		{Algo: "greedy", Weight: 0.4},
		{Algo: "approx", Weight: 0.35},
		{Algo: "frac", Weight: 0.25},
	}
	window := 30 * time.Second
	serve := func(seed int64, rate float64, corpus, streams int) Spec {
		return Spec{
			Seed: seed, Requests: int(rate*window.Seconds()*1.25) + 64, Rate: rate,
			CorpusSize: corpus, SeedStreams: streams, Mix: serveMix,
		}
	}
	solve := func(seed int64) Spec {
		return Spec{Seed: seed, Requests: 200, Rate: 1, CorpusSize: 32, SeedStreams: 1 << 30, Mix: serveMix}
	}
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"BENCH_LOADGEN", smoke, "902b642f7aa214a4b58e4481c01b0244707ff085619d81f0cd72de874fc826c2"},
		{"serve-cold/seed=7", serve(7, 40, 256, 1<<30), "8633cb0e0469c90a6c7e4fbf23a728b4898ee66ab9e515ce3b22b4cf90dc4acc"},
		{"serve-cold/seed=9001", serve(9001, 40, 256, 1<<30), "bb3d0877e75f134211e2c4e499af28ac0055b979c4358d294c5fe2660a4ae6b5"},
		{"serve-warm/seed=7", serve(7, 250, 8, 2), "19a2f26dc20dcc23cf635e00341f29b96e11e21c4d6aabc6080b1081c08ae807"},
		{"serve-warm/seed=9001", serve(9001, 250, 8, 2), "5a0ec5a3b4ae2aacac9da517e176bd6468a34454d4ef2b958b30e6b3d25f1f42"},
		{"solve/seed=7", solve(7), "3e36648e4a5bc7ec87191fe18c49ec7a7992ce213f81a379539408df149f4944"},
		{"solve/seed=9001", solve(9001), "9c8991b65829125a2d631d7498890d61d26a958ad49b713681c438672f762fb4"},
	}
	for _, tc := range cases {
		shots, err := BuildSchedule(tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := scheduleHash(shots); got != tc.want {
			t.Errorf("%s: %d shots hash to %s, want %s", tc.name, len(shots), got, tc.want)
		}
	}
}
