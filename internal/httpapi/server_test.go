package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/matching"
	"repro/internal/rng"
)

func testInstancePayload(tb testing.TB) (*graph.Graph, graph.Budgets, []byte) {
	tb.Helper()
	r := rng.New(7)
	g, b := graph.ClientServer(160, 10, 5, 3, 20, r.Split())
	return g, b, graphio.AppendBinaryTo(nil, g, b)
}

func newTestServer(tb testing.TB, poolCfg engine.PoolConfig, cfg Config) (*Server, *httptest.Server) {
	tb.Helper()
	srv := NewServer(engine.NewPool(poolCfg), cfg)
	ts := httptest.NewServer(srv.Handler())
	tb.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

type solveResponse struct {
	Algo     string  `json:"algo"`
	Instance string  `json:"instance"`
	N        int     `json:"n"`
	M        int     `json:"m"`
	Size     int     `json:"size"`
	Weight   float64 `json:"weight"`
	Feasible bool    `json:"feasible"`
	Cached   bool    `json:"cached"`
	Cert     *struct {
		DualBound float64 `json:"dualBound"`
		FracValue float64 `json:"fracValue"`
	} `json:"cert"`
	Edges []int32 `json:"edges"`
}

func postSolve(t *testing.T, client *http.Client, url string, payload []byte, query string) (*solveResponse, int) {
	t.Helper()
	resp, err := client.Post(url+"/v1/solve?"+query, "application/octet-stream", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var eb errorBody
		json.NewDecoder(resp.Body).Decode(&eb)
		return nil, resp.StatusCode
	}
	var out solveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return &out, resp.StatusCode
}

// checkFeasible rebuilds the matching from returned edge ids and validates
// every budget constraint client-side.
func checkFeasible(t *testing.T, g *graph.Graph, b graph.Budgets, edges []int32, wantSize int) {
	t.Helper()
	m := matching.MustNew(g, b)
	for _, e := range edges {
		if err := m.Add(e); err != nil {
			t.Fatalf("returned edge %d infeasible: %v", e, err)
		}
	}
	if m.Size() != wantSize {
		t.Fatalf("size field %d != |edges| %d", wantSize, m.Size())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentMaxWeight pins the headline acceptance criterion: ≥32
// concurrent MaxWeight requests are all answered correctly (feasible
// matchings) and deterministically per seed.
func TestConcurrentMaxWeight(t *testing.T) {
	g, b, payload := testInstancePayload(t)
	_, ts := newTestServer(t, engine.PoolConfig{Workers: 8, QueueDepth: 64}, Config{})

	const requests = 48
	const seeds = 6
	results := make([]*solveResponse, requests)
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// nocache on a third of the requests so real concurrent solves
			// are exercised alongside cache hits.
			q := fmt.Sprintf("algo=maxw&seed=%d&eps=0.25&nocache=%t", i%seeds, i%3 == 0)
			out, code := postSolve(t, ts.Client(), ts.URL, payload, q)
			if code != http.StatusOK {
				t.Errorf("request %d: status %d", i, code)
				return
			}
			results[i] = out
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	bySeed := map[int]*solveResponse{}
	for i, out := range results {
		if !out.Feasible {
			t.Fatalf("request %d reported infeasible", i)
		}
		checkFeasible(t, g, b, out.Edges, out.Size)
		seed := i % seeds
		if prev, ok := bySeed[seed]; ok {
			if prev.Size != out.Size || prev.Weight != out.Weight {
				t.Fatalf("seed %d nondeterministic: size/weight %d/%v vs %d/%v",
					seed, prev.Size, prev.Weight, out.Size, out.Weight)
			}
			for j := range prev.Edges {
				if prev.Edges[j] != out.Edges[j] {
					t.Fatalf("seed %d nondeterministic at edge %d", seed, j)
				}
			}
		} else {
			bySeed[seed] = out
		}
	}
	if len(bySeed) != seeds {
		t.Fatalf("expected %d distinct seeds, got %d", seeds, len(bySeed))
	}
}

// TestAllAlgosServe exercises each algo end-to-end over HTTP, including the
// approx certificate fields.
func TestAllAlgosServe(t *testing.T) {
	g, b, payload := testInstancePayload(t)
	_, ts := newTestServer(t, engine.PoolConfig{Workers: 2}, Config{})

	for _, algo := range []string{"approx", "max", "maxw", "greedy"} {
		out, code := postSolve(t, ts.Client(), ts.URL, payload, "algo="+algo+"&seed=3")
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", algo, code)
		}
		if out.Algo != algo || out.N != g.N || out.M != g.M() {
			t.Fatalf("%s: echo fields wrong: %+v", algo, out)
		}
		checkFeasible(t, g, b, out.Edges, out.Size)
		if algo == "approx" {
			if out.Cert == nil || out.Cert.DualBound <= 0 {
				t.Fatalf("approx: missing dual certificate: %+v", out.Cert)
			}
			if float64(out.Size) > out.Cert.DualBound {
				t.Fatalf("approx: size %d exceeds dual bound %v", out.Size, out.Cert.DualBound)
			}
		}
	}
}

// TestResultAndInstanceCache: the second identical request must be a cache
// hit, and text/binary posts of the same graph must share one instance.
func TestResultAndInstanceCache(t *testing.T) {
	g, b, payload := testInstancePayload(t)
	_, ts := newTestServer(t, engine.PoolConfig{}, Config{})

	first, _ := postSolve(t, ts.Client(), ts.URL, payload, "algo=greedy&seed=1")
	second, _ := postSolve(t, ts.Client(), ts.URL, payload, "algo=greedy&seed=1")
	if first.Cached || !second.Cached {
		t.Fatalf("cached flags: first=%t second=%t, want false/true", first.Cached, second.Cached)
	}
	if first.Size != second.Size || first.Weight != second.Weight {
		t.Fatal("cache returned a different result")
	}

	// Same graph in text form must resolve to the same canonical instance.
	var txt bytes.Buffer
	if err := graphio.Write(&txt, g, b); err != nil {
		t.Fatal(err)
	}
	third, _ := postSolve(t, ts.Client(), ts.URL, txt.Bytes(), "algo=greedy&seed=1")
	if third.Instance != first.Instance {
		t.Fatalf("text and binary posts got different instance keys: %s vs %s", third.Instance, first.Instance)
	}
	if !third.Cached {
		t.Fatal("canonicalized text post missed the result cache")
	}
}

func TestBadRequests(t *testing.T) {
	_, _, payload := testInstancePayload(t)
	_, ts := newTestServer(t, engine.PoolConfig{}, Config{})

	cases := []struct {
		name    string
		query   string
		payload []byte
		want    int
	}{
		{"bad algo", "algo=nope", payload, http.StatusBadRequest},
		{"eps too big", "algo=maxw&eps=1.5", payload, http.StatusBadRequest},
		{"negative eps", "algo=maxw&eps=-0.5", payload, http.StatusBadRequest},
		{"eps NaN", "algo=maxw&eps=NaN", payload, http.StatusBadRequest},
		{"bad seed", "algo=maxw&seed=xyz", payload, http.StatusBadRequest},
		{"bad timeout", "algo=maxw&timeout_ms=-5", payload, http.StatusBadRequest},
		{"garbage body", "algo=maxw", []byte("BMG1\x00\x05"), http.StatusBadRequest},
		{"truncated text", "algo=maxw", []byte("n 5\ne 0"), http.StatusBadRequest},
	}
	for _, tc := range cases {
		if _, code := postSolve(t, ts.Client(), ts.URL, tc.payload, tc.query); code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.want)
		}
	}
}

func TestBodyLimit(t *testing.T) {
	_, _, payload := testInstancePayload(t)
	_, ts := newTestServer(t, engine.PoolConfig{}, Config{MaxBodyBytes: 16})
	if _, code := postSolve(t, ts.Client(), ts.URL, payload, "algo=greedy"); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", code)
	}
}

// TestTimeoutMs pins the per-request deadline contract: a deadline far
// shorter than the solve yields a 504, the aborted solve is counted as a
// mid-solve cancellation (or a queued-cancel when the deadline fires
// first), and the worker is free again — the follow-up request computes
// fine.
func TestTimeoutMs(t *testing.T) {
	_, _, payload := testInstancePayload(t)
	srv, ts := newTestServer(t, engine.PoolConfig{Workers: 1}, Config{})

	if _, code := postSolve(t, ts.Client(), ts.URL, payload, "algo=maxw&eps=0.05&seed=1&nocache=true&timeout_ms=1"); code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", code)
	}
	// The worker must be free: an ordinary request right after completes.
	out, code := postSolve(t, ts.Client(), ts.URL, payload, "algo=greedy&seed=1")
	if code != http.StatusOK || !out.Feasible {
		t.Fatalf("follow-up request after timeout: status %d, %+v", code, out)
	}
	st := srv.pool.Stats()
	if st.SolveCanceled+st.Canceled < 1 {
		t.Fatalf("timeout was not counted as a cancellation: %+v", st)
	}
}

// waitPool polls the pool's counters until cond holds and fails with msg
// after 10 s.
func waitPool(t *testing.T, srv *Server, msg string, cond func(engine.PoolStats) bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		st := srv.pool.Stats()
		if cond(st) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %+v", msg, st)
		}
	}
}

// TestClientCancelFreesWorker: a /v1/solve client that goes away
// mid-solve aborts the solve, and the pool's one worker is free for the
// next request.
func TestClientCancelFreesWorker(t *testing.T) {
	_, _, payload := testInstancePayload(t)
	srv, ts := newTestServer(t, engine.PoolConfig{Workers: 1}, Config{})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/solve?algo=maxw&eps=0.05&seed=1&nocache=true", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	answered := make(chan int, 1) // the reply's status, 0 when the request failed
	go func() {
		code := 0
		if resp, err := ts.Client().Do(req); err == nil {
			resp.Body.Close()
			code = resp.StatusCode
		}
		answered <- code
	}()
	// Go away only once the solve is in the pool, so that the pool and not
	// the decode sees it.
	waitPool(t, srv, "the solve never reached the pool", func(st engine.PoolStats) bool { return st.Submitted == 1 })
	cancel()
	if code := <-answered; code != 0 {
		t.Fatalf("the solve answered %d before its client went away", code)
	}
	// The server sees the client go away asynchronously.
	waitPool(t, srv, "the abandoned solve was not cancelled", func(st engine.PoolStats) bool { return st.Canceled+st.SolveCanceled == 1 })
	if out, code := postSolve(t, ts.Client(), ts.URL, payload, "algo=greedy&seed=1"); code != http.StatusOK || !out.Feasible {
		t.Fatalf("follow-up request after the client cancel: status %d, %+v", code, out)
	}
}

// TestHealthzDraining pins the lifecycle contract: healthz reports
// status "ok" with a 200 while serving, and flips to "draining" with a
// 503 + Retry-After once SetDraining is called — the signal load
// generators use to stop offering load to a terminating replica.
func TestHealthzDraining(t *testing.T) {
	srv, ts := newTestServer(t, engine.PoolConfig{}, Config{})

	getHealth := func() (int, map[string]any) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	code, body := getHealth()
	if code != http.StatusOK || body["status"] != "ok" || body["ok"] != true {
		t.Fatalf("pre-drain healthz: %d %v", code, body)
	}

	srv.SetDraining()
	code, body = getHealth()
	if code != http.StatusServiceUnavailable || body["status"] != "draining" || body["ok"] != false {
		t.Fatalf("post-drain healthz: %d %v", code, body)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining healthz missing Retry-After")
	}
}

func TestHealthzAndStats(t *testing.T) {
	_, _, payload := testInstancePayload(t)
	_, ts := newTestServer(t, engine.PoolConfig{}, Config{})

	resp, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	postSolve(t, ts.Client(), ts.URL, payload, "algo=greedy")
	postSolve(t, ts.Client(), ts.URL, payload, "algo=greedy")

	resp, err = ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsBody
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Pool.Completed < 1 {
		t.Fatalf("stats did not count completions: %+v", st.Pool)
	}
	if st.Cache.ResultHits < 1 {
		t.Fatalf("stats did not count the repeat-request cache hit: %+v", st.Cache)
	}
}

// TestHostileCountsRejected pins the confirmed DoS fix: an 11-byte payload
// declaring 2^31-1 vertices must bounce with 400 at the request boundary
// instead of allocating gigabytes.
func TestHostileCountsRejected(t *testing.T) {
	_, ts := newTestServer(t, engine.PoolConfig{}, Config{})

	hostile := []byte(graphio.BinaryMagic)
	hostile = append(hostile, 0)
	hostile = append(hostile, 0xff, 0xff, 0xff, 0xff, 0x07) // n = 2^31-1
	hostile = append(hostile, 0, 0)
	done := make(chan int, 1)
	go func() {
		_, code := postSolve(t, ts.Client(), ts.URL, hostile, "algo=greedy")
		done <- code
	}()
	select {
	case code := <-done:
		if code != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("hostile payload hung the server (allocation happened before the limit check)")
	}
	if _, code := postSolve(t, ts.Client(), ts.URL, []byte("n 2147483647\n"), "algo=greedy"); code != http.StatusBadRequest {
		t.Fatalf("text form: status %d, want 400", code)
	}
}

// TestValueModeParam covers the values= query parameter end to end: f32 is
// accepted for frac (and cached separately from the default), and unknown
// spellings and f32-with-integral-algos are 400s.
func TestValueModeParam(t *testing.T) {
	_, _, payload := testInstancePayload(t)
	_, ts := newTestServer(t, engine.PoolConfig{Workers: 2}, Config{})

	if _, code := postSolve(t, ts.Client(), ts.URL, payload, "algo=frac&seed=1&values=f32"); code != http.StatusOK {
		t.Fatalf("values=f32: status %d", code)
	}
	if _, code := postSolve(t, ts.Client(), ts.URL, payload, "algo=frac&seed=1&values=f16"); code != http.StatusBadRequest {
		t.Fatalf("values=f16: status %d, want 400", code)
	}
	if _, code := postSolve(t, ts.Client(), ts.URL, payload, "algo=maxw&seed=1&values=f32"); code != http.StatusBadRequest {
		t.Fatalf("maxw with f32: status %d, want 400", code)
	}

	// f32 and f64 results must not share a cache entry: after an f32 solve,
	// the first default-mode solve is a miss, the second a hit.
	out, code := postSolve(t, ts.Client(), ts.URL, payload, "algo=frac&seed=2&values=f32")
	if code != http.StatusOK || out.Cached {
		t.Fatalf("f32 warmup: status %d cached=%v", code, out.Cached)
	}
	out, code = postSolve(t, ts.Client(), ts.URL, payload, "algo=frac&seed=2")
	if code != http.StatusOK || out.Cached {
		t.Fatalf("f64 after f32: status %d cached=%v (must not hit the f32 entry)", code, out.Cached)
	}
	out, code = postSolve(t, ts.Client(), ts.URL, payload, "algo=frac&seed=2")
	if code != http.StatusOK || !out.Cached {
		t.Fatalf("f64 repeat: status %d cached=%v", code, out.Cached)
	}
}
