// Client-server allocation: the workload the paper's introduction motivates
// b-matching with. Clients issue a handful of weighted requests; servers
// have large, heterogeneous capacities ("often servers can serve a larger
// number of requests, and often a varying number"). A maximum weight
// b-matching is then a revenue-maximizing admission plan.
//
// This example exercises every seam of the serving stack:
//
//   - the HTTP path: it starts the bmatchd surface in-process
//     (internal/httpapi wrapping an internal/engine pool), ships the
//     instance over a real socket in the binary graphio wire format, and
//     compares the daemon's greedy dispatcher against the paper's (1+ε)
//     algorithm — including a re-post that hits the instance and result
//     caches;
//   - the async v2 jobs path: the same solve submitted to POST /v2/jobs,
//     polled for round/superstep progress, fetched when done — the plan is
//     bit-identical to the synchronous /v1/solve reply;
//   - the transport-free path: the same solve through the unified
//     bmatch.Session.Solve facade, no HTTP anywhere, again bit-identical —
//     this is the embedding API for consumers that must not link a server.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	bmatch "repro"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/httpapi"
	"repro/internal/matching"
	"repro/internal/rng"
)

type solveResponse struct {
	Size     int     `json:"size"`
	Weight   float64 `json:"weight"`
	Feasible bool    `json:"feasible"`
	Cached   bool    `json:"cached"`
	Edges    []int32 `json:"edges"`
}

func solve(base string, payload []byte, query string) *solveResponse {
	resp, err := http.Post(base+"/v1/solve?"+query, "application/octet-stream", bytes.NewReader(payload))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("solve: HTTP %d", resp.StatusCode)
	}
	var out solveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		log.Fatal(err)
	}
	if !out.Feasible {
		log.Fatal("daemon returned an infeasible matching")
	}
	return &out
}

func main() {
	const (
		clients = 2000
		servers = 60
	)
	r := rng.New(7)
	g, b := graph.ClientServer(clients, servers, 6, 3, 40, r.Split())
	payload := graphio.AppendBinaryTo(nil, g, b)
	fmt.Printf("allocation instance: %d clients, %d servers, %d candidate assignments (%d-byte wire payload)\n",
		clients, servers, g.M(), len(payload))
	fmt.Printf("total server capacity = %d, total client demand = %d\n",
		sum(b[clients:]), sum(b[:clients]))

	// Start the daemon in-process and talk to it over a real socket, as an
	// external client would: an engine pool (sessions, caches, admission)
	// wrapped by the httpapi transport.
	pool := engine.NewPool(engine.PoolConfig{Workers: 2})
	api := httpapi.NewServer(pool, httpapi.Config{})
	defer api.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, api.Handler())
	base := "http://" + ln.Addr().String()
	fmt.Printf("\nbmatchd serving on %s\n", base)

	// Baseline: greedy heaviest-first dispatch (2-approximate).
	gm := solve(base, payload, "algo=greedy&seed=1")
	fmt.Printf("greedy dispatcher:   %5d requests admitted, value %.0f\n", gm.Size, gm.Weight)

	// The paper's algorithm, served by the daemon.
	start := time.Now()
	m := solve(base, payload, "algo=maxw&seed=1&eps=0.25")
	fmt.Printf("(1+ε) b-matching:    %5d requests admitted, value %.0f (+%.1f%%) in %v\n",
		m.Size, m.Weight, 100*(m.Weight-gm.Weight)/gm.Weight, time.Since(start).Round(time.Millisecond))

	// Re-posting the same instance hits the daemon's content-hash caches.
	start = time.Now()
	again := solve(base, payload, "algo=maxw&seed=1&eps=0.25")
	fmt.Printf("same request again:  %5d requests admitted, cached=%t in %v\n",
		again.Size, again.Cached, time.Since(start).Round(time.Microsecond))

	// The async path: submit the same solve as a v2 job (nocache forces a
	// real run), poll its checkpoint progress, fetch the result when done.
	var job struct {
		ID        string `json:"id"`
		State     string `json:"state"`
		ResultURL string `json:"resultUrl"`
	}
	resp, err := http.Post(base+"/v2/jobs?algo=maxw&seed=1&eps=0.25&nocache=true",
		"application/octet-stream", bytes.NewReader(payload))
	if err != nil {
		log.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	polls, lastCheckpoints := 0, int64(0)
	for job.State != "done" && job.State != "failed" && job.State != "canceled" {
		time.Sleep(10 * time.Millisecond)
		sresp, err := http.Get(base + "/v2/jobs/" + job.ID)
		if err != nil {
			log.Fatal(err)
		}
		var st struct {
			State       string `json:"state"`
			Checkpoints int64  `json:"checkpoints"`
		}
		if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
			log.Fatal(err)
		}
		sresp.Body.Close()
		job.State, lastCheckpoints = st.State, st.Checkpoints
		polls++
	}
	rresp, err := http.Get(base + job.ResultURL)
	if err != nil {
		log.Fatal(err)
	}
	var async solveResponse
	if err := json.NewDecoder(rresp.Body).Decode(&async); err != nil {
		log.Fatal(err)
	}
	rresp.Body.Close()
	mustMatch("async v2 plan", async.Edges, m.Edges)
	fmt.Printf("async v2 job:        %5d requests admitted after %d polls (%d solver checkpoints), bit-identical\n",
		async.Size, polls, lastCheckpoints)

	// The transport-free path: the same solve through the unified facade
	// Session — no HTTP server, no sockets, no net/http in the consumer's
	// dependency graph. Embedders get the identical deterministic plan
	// from the identical Request contract the daemon parses off the wire.
	sess := bmatch.NewSession()
	start = time.Now()
	direct, err := sess.Solve(context.Background(), g, b,
		bmatch.Request{Algo: bmatch.AlgoMaxWeight, Seed: 1, Eps: 0.25})
	if err != nil {
		log.Fatal(err)
	}
	mustMatch("facade plan", direct.M.Edges(), m.Edges)
	fmt.Printf("in-process facade:   %5d requests admitted, bit-identical to the HTTP plan, in %v (no transport)\n",
		direct.Size, time.Since(start).Round(time.Millisecond))

	// Server utilization under the optimized plan, validated client-side.
	plan := matching.MustNew(g, b)
	for _, e := range m.Edges {
		if err := plan.Add(e); err != nil {
			log.Fatal(err)
		}
	}
	var used, capacity int
	full := 0
	for s := clients; s < g.N; s++ {
		used += plan.MatchedDeg(int32(s))
		capacity += b[s]
		if !plan.Free(int32(s)) {
			full++
		}
	}
	fmt.Printf("\nserver utilization: %d/%d slots (%.0f%%), %d/%d servers saturated\n",
		used, capacity, 100*float64(used)/float64(capacity), full, servers)
}

func sum(b []int) int {
	t := 0
	for _, x := range b {
		t += x
	}
	return t
}

func mustMatch(label string, got, want []int32) {
	if len(got) != len(want) {
		log.Fatalf("%s differs from HTTP plan: %d vs %d edges", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			log.Fatalf("%s differs from HTTP plan at edge %d", label, i)
		}
	}
}
