package main

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/loadgen"
)

// heldOutSeed is kept out of development runs: a later performance claim is
// confirmed on it as well as on the seeds it was developed with.
const heldOutSeed = 9001

func samePayloads(a, b []*instance) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].payload, b[i].payload) {
			return false
		}
	}
	return true
}

func sameShots(a, b []loadgen.Shot) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestInputsFollowTheSeed(t *testing.T) {
	a, err := buildSolveInputs(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildSolveInputs(7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := buildSolveInputs(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, sets := range []struct {
		name    string
		a, b, c []*instance
	}{
		{"large", a.large, b.large, c.large},
		{"small", a.small, b.small, c.small},
		{"requests", a.requests, b.requests, c.requests},
	} {
		if !samePayloads(sets.a, sets.b) {
			t.Errorf("%s set: one seed gave two different inputs", sets.name)
		}
		if samePayloads(sets.a, sets.c) {
			t.Errorf("%s set: seeds 7 and 8 gave the same inputs", sets.name)
		}
	}
	if !sameShots(a.shots, b.shots) || sameShots(a.shots, c.shots) {
		t.Error("request schedule does not follow the seed")
	}

	for name, cfg := range serveConfigs {
		x, err := buildServeInputs(cfg, 7, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		y, err := buildServeInputs(cfg, 7, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		z, err := buildServeInputs(cfg, 8, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !sameShots(x.shots, y.shots) || !bytes.Equal(x.corpus[0].Payload, y.corpus[0].Payload) {
			t.Errorf("%s: one seed gave two different inputs", name)
		}
		if sameShots(x.shots, z.shots) || bytes.Equal(x.corpus[0].Payload, z.corpus[0].Payload) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", name)
		}
	}
}

// TestSameSeedRepeats runs the solve workload and its traced run twice at
// one seed. Qualities and the layers' work counts must repeat exactly, and
// allocation counts within 0.1%.
func TestSameSeedRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the solve workload four times")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := context.Background()
	var quality [2]map[string]metric
	var layers [2]map[string]metric
	for i := range quality {
		run, err := runSolve(ctx, 7, 0)
		if err != nil {
			t.Fatal(err)
		}
		quality[i] = run.metrics()
		if layers[i], _, err = runSolveTraced(ctx, 7, 0, newRecorder()); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"quality.approx", "quality.max", "quality.maxw"} {
		if a, b := quality[0][name].value, quality[1][name].value; a != b {
			t.Errorf("%s: %v then %v", name, a, b)
		}
	}
	for _, name := range []string{"frac.iterations", "mpc.rounds", "mpc.traffic_words",
		"augment.instances", "augment.sweeps", "weighted.rounds", "weighted.instances"} {
		if a, b := layers[0][name].value, layers[1][name].value; a != b || a == 0 {
			t.Errorf("%s: %v then %v", name, a, b)
		}
	}
	for _, a := range solveAlgos {
		name := "mallocs." + string(a)
		x, y := layers[0][name].value, layers[1][name].value
		if math.Abs(x-y) > 0.001*math.Max(x, y) {
			t.Errorf("%s: %v then %v, more than 0.1%% apart", name, x, y)
		}
	}
}

// TestCalibrationsAreFixed checks that each calibration does the same work
// on every run, and logs its median time: on a new reference host, that
// median is the calibration's ref.
func TestCalibrationsAreFixed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for name, c := range map[string]calibration{"large": calLarge, "request": calRequest, "compute": calCompute} {
		sum := c.run()
		var secs []float64
		for i := 0; i < 15; i++ {
			t0 := time.Now()
			if got := c.run(); got != sum {
				t.Fatalf("%s: checksum %v, then %v", name, sum, got)
			}
			secs = append(secs, time.Since(t0).Seconds())
		}
		t.Logf("%s: median %.5f s, ref %.5f s", name, median(secs), c.ref)
	}
}

// TestReplyHeadPrecedesArrays serves every algorithm in-process and reads
// the reply the way the generator does: the fields it checks must all sit
// in the first KiB, ahead of the arrays.
func TestReplyHeadPrecedesArrays(t *testing.T) {
	in, err := buildServeInputs(serveConfigs["serve-warm"], 1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	srv := newDaemonServer()
	defer srv.Close()
	it := in.corpus[0]
	for _, e := range serveMix {
		w, h, err := serveHTTP(context.Background(), srv, e.Algo, 1, it.Payload, it.N, it.M)
		if err != nil {
			t.Fatalf("%s: %v", e.Algo, err)
		}
		if w.bytes <= len(w.head) {
			t.Errorf("%s: reply of %d bytes fits in the head buffer; the test needs arrays after it", e.Algo, w.bytes)
		}
		if h.cached {
			t.Errorf("%s: first solve reported cached", e.Algo)
		}
	}
}
