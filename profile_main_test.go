package bmatch

import (
	"context"
	"os"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// TestProfileWeightedDriver exists to be run manually with -cpuprofile
// (set BMATCH_PROFILE=1); it is skipped otherwise to keep the suite fast.
func TestProfileWeightedDriver(t *testing.T) {
	if os.Getenv("BMATCH_PROFILE") == "" {
		t.Skip("profiling helper; set BMATCH_PROFILE=1 to run")
	}
	r := rng.New(7)
	g, b := graph.ClientServer(2000, 60, 6, 3, 40, r.Split())
	if _, err := Solve(context.Background(), g, b, Request{Algo: AlgoMaxWeight, Seed: 1, Eps: 0.25}); err != nil {
		t.Fatal(err)
	}
}
