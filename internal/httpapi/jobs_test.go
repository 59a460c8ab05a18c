package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/engine"
)

func postJob(t *testing.T, client *http.Client, url string, payload []byte, query string) (*jobStatusBody, int) {
	t.Helper()
	resp, err := client.Post(url+"/v2/jobs?"+query, "application/octet-stream", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		io.Copy(io.Discard, resp.Body)
		return nil, resp.StatusCode
	}
	var st jobStatusBody
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	if loc := resp.Header.Get("Location"); loc != "/v2/jobs/"+st.ID {
		t.Fatalf("Location %q does not match job id %q", loc, st.ID)
	}
	return &st, resp.StatusCode
}

func getStatus(t *testing.T, client *http.Client, url, id string) (*jobStatusBody, int) {
	t.Helper()
	resp, err := client.Get(url + "/v2/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, resp.StatusCode
	}
	var st jobStatusBody
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding status: %v", err)
	}
	return &st, resp.StatusCode
}

func getResult(t *testing.T, client *http.Client, url, id string) (*solveResponse, int) {
	t.Helper()
	resp, err := client.Get(url + "/v2/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, resp.StatusCode
	}
	var out solveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding result: %v", err)
	}
	return &out, resp.StatusCode
}

func deleteJob(t *testing.T, client *http.Client, url, id string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url+"/v2/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

func waitJobState(t *testing.T, client *http.Client, url, id, want string) *jobStatusBody {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, code := getStatus(t, client, url, id)
		if code != http.StatusOK {
			t.Fatalf("status %s: HTTP %d", id, code)
		}
		if st.State == want {
			return st
		}
		switch st.State {
		case "done", "failed", "canceled":
			t.Fatalf("job %s settled as %s (%s), want %s", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %s (now %s)", id, want, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestV2JobLifecycle is the end-to-end acceptance test for the async API:
// submit → progress becomes visible in status polls → result is served —
// and the async result is bit-identical to a synchronous /v1/solve of the
// same (instance, Request).
func TestV2JobLifecycle(t *testing.T) {
	g, b, payload := testInstancePayload(t)
	_, ts := newTestServer(t, engine.PoolConfig{Workers: 2}, Config{})
	const query = "algo=maxw&seed=5&eps=0.25&nocache=true"

	st, code := postJob(t, ts.Client(), ts.URL, payload, query)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	if st.State == "done" || st.State == "failed" {
		t.Fatalf("fresh job already %s", st.State)
	}

	// Progress: the checkpoint odometer must be observable climbing while
	// the job runs (or the job finishes first on a fast machine — then the
	// final sample must still be > 0).
	var sawProgress int64
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, code := getStatus(t, ts.Client(), ts.URL, st.ID)
		if code != http.StatusOK {
			t.Fatalf("status: HTTP %d", code)
		}
		if cur.Checkpoints > sawProgress {
			sawProgress = cur.Checkpoints
		}
		if cur.State == "done" {
			break
		}
		if cur.State == "failed" || cur.State == "canceled" {
			t.Fatalf("job settled as %s: %s", cur.State, cur.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
	}
	if sawProgress == 0 {
		t.Fatal("no checkpoint progress ever visible in status polls")
	}

	async, code := getResult(t, ts.Client(), ts.URL, st.ID)
	if code != http.StatusOK {
		t.Fatalf("result: HTTP %d", code)
	}
	checkFeasible(t, g, b, async.Edges, async.Size)

	// The same request over the synchronous v1 path: bit-identical result.
	sync, code := postSolve(t, ts.Client(), ts.URL, payload, query)
	if code != http.StatusOK {
		t.Fatalf("v1 solve: HTTP %d", code)
	}
	if sync.Size != async.Size || sync.Weight != async.Weight || sync.Instance != async.Instance {
		t.Fatalf("v1/v2 diverged: %d/%v/%s vs %d/%v/%s",
			async.Size, async.Weight, async.Instance, sync.Size, sync.Weight, sync.Instance)
	}
	if len(sync.Edges) != len(async.Edges) {
		t.Fatalf("v1/v2 edge counts differ: %d vs %d", len(sync.Edges), len(async.Edges))
	}
	for i := range sync.Edges {
		if sync.Edges[i] != async.Edges[i] {
			t.Fatalf("v1/v2 plans diverge at edge %d", i)
		}
	}

	// The result stays fetchable until the TTL; a repeat read works.
	if _, code := getResult(t, ts.Client(), ts.URL, st.ID); code != http.StatusOK {
		t.Fatalf("second result read: HTTP %d", code)
	}
}

// TestV2CancelLifecycle: DELETE aborts a running job, the job settles as
// canceled, its result answers 410, and the worker is free for new work.
func TestV2CancelLifecycle(t *testing.T) {
	_, _, payload := testInstancePayload(t)
	srv, ts := newTestServer(t, engine.PoolConfig{Workers: 1}, Config{})

	st, code := postJob(t, ts.Client(), ts.URL, payload, "algo=maxw&seed=1&eps=0.05&nocache=true")
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	if code := deleteJob(t, ts.Client(), ts.URL, st.ID); code != http.StatusOK {
		t.Fatalf("cancel: HTTP %d", code)
	}
	final := waitJobState(t, ts.Client(), ts.URL, st.ID, "canceled")
	if final.Error == "" {
		t.Fatal("canceled job carries no error")
	}
	if _, code := getResult(t, ts.Client(), ts.URL, st.ID); code != http.StatusGone {
		t.Fatalf("result of canceled job: HTTP %d, want 410", code)
	}
	// The worker must be free again: a quick sync solve completes.
	if _, code := postSolve(t, ts.Client(), ts.URL, payload, "algo=greedy&seed=2"); code != http.StatusOK {
		t.Fatalf("follow-up solve after cancel: HTTP %d", code)
	}
	if s := srv.jobs.Stats(); s.Canceled < 1 {
		t.Fatalf("cancel not counted: %+v", s)
	}
}

// TestV2ErrorPaths is the table-driven error-path matrix: unknown job,
// double-cancel, result-before-done, and TTL-expired.
func TestV2ErrorPaths(t *testing.T) {
	_, _, payload := testInstancePayload(t)
	_, ts := newTestServer(t, engine.PoolConfig{Workers: 1},
		Config{JobTTL: 50 * time.Millisecond})

	// In-flight cases first (on a 1-worker pool the slow job must not be
	// given a chance to finish and TTL-expire): a slow maxw job is polled
	// for its result too early, then cancelled twice.
	running, code := postJob(t, ts.Client(), ts.URL, payload, "algo=maxw&seed=9&eps=0.05&nocache=true")
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	// A finished job for the expiry cases, checked after its TTL passes.
	expired, code := postJob(t, ts.Client(), ts.URL, payload, "algo=greedy&seed=1")
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}

	inFlight := []struct {
		name string
		do   func() int
		want int
	}{
		{"unknown job status", func() int { _, c := getStatus(t, ts.Client(), ts.URL, "deadbeef"); return c }, http.StatusNotFound},
		{"unknown job result", func() int { _, c := getResult(t, ts.Client(), ts.URL, "deadbeef"); return c }, http.StatusNotFound},
		{"unknown job cancel", func() int { return deleteJob(t, ts.Client(), ts.URL, "deadbeef") }, http.StatusNotFound},
		{"result before done", func() int { _, c := getResult(t, ts.Client(), ts.URL, running.ID); return c }, http.StatusConflict},
		{"first cancel", func() int { return deleteJob(t, ts.Client(), ts.URL, running.ID) }, http.StatusOK},
		{"double cancel", func() int { return deleteJob(t, ts.Client(), ts.URL, running.ID) }, http.StatusConflict},
		{"bad algo", func() int { _, c := postJob(t, ts.Client(), ts.URL, payload, "algo=nope"); return c }, http.StatusBadRequest},
		{"timeout_ms rejected", func() int {
			_, c := postJob(t, ts.Client(), ts.URL, payload, "algo=greedy&timeout_ms=1000")
			return c
		}, http.StatusBadRequest},
		{"bad workers", func() int { _, c := postJob(t, ts.Client(), ts.URL, payload, "algo=greedy&workers=-1"); return c }, http.StatusBadRequest},
		{"huge workers", func() int { _, c := postJob(t, ts.Client(), ts.URL, payload, "algo=greedy&workers=100000"); return c }, http.StatusBadRequest},
	}
	for _, tc := range inFlight {
		if got := tc.do(); got != tc.want {
			t.Errorf("%s: HTTP %d, want %d", tc.name, got, tc.want)
		}
	}

	// TTL expiry: once the greedy job is done and its 50ms TTL has passed,
	// it must be indistinguishable from a job that never existed.
	waitJobState(t, ts.Client(), ts.URL, expired.ID, "done")
	time.Sleep(120 * time.Millisecond)
	if _, c := getStatus(t, ts.Client(), ts.URL, expired.ID); c != http.StatusNotFound {
		t.Errorf("TTL-expired status: HTTP %d, want 404", c)
	}
	if _, c := getResult(t, ts.Client(), ts.URL, expired.ID); c != http.StatusNotFound {
		t.Errorf("TTL-expired result: HTTP %d, want 404", c)
	}
}

// TestV2MaxJobs: the registry's admission bound surfaces as 429 with
// Retry-After on submit.
func TestV2MaxJobs(t *testing.T) {
	_, _, payload := testInstancePayload(t)
	_, ts := newTestServer(t, engine.PoolConfig{Workers: 1}, Config{MaxJobs: 1})

	st, code := postJob(t, ts.Client(), ts.URL, payload, "algo=maxw&seed=1&eps=0.05&nocache=true")
	if code != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d", code)
	}
	if _, code := postJob(t, ts.Client(), ts.URL, payload, "algo=greedy&seed=2"); code != http.StatusTooManyRequests {
		t.Fatalf("over-limit submit: HTTP %d, want 429", code)
	}
	deleteJob(t, ts.Client(), ts.URL, st.ID)
}

// TestRetainedJobsDoNotBlockSyncSolves: MaxJobs bounds /v2 jobs only. A
// finished job retained for its TTL fills a one-job registry, and a
// synchronous /v1/solve must still be served.
func TestRetainedJobsDoNotBlockSyncSolves(t *testing.T) {
	_, _, payload := testInstancePayload(t)
	_, ts := newTestServer(t, engine.PoolConfig{Workers: 1}, Config{MaxJobs: 1})

	st, code := postJob(t, ts.Client(), ts.URL, payload, "algo=greedy&seed=1")
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitJobState(t, ts.Client(), ts.URL, st.ID, "done")
	if _, code := postSolve(t, ts.Client(), ts.URL, payload, "algo=greedy&seed=2"); code != http.StatusOK {
		t.Fatalf("sync solve beside a retained job: HTTP %d, want 200", code)
	}
}

// TestWorkersParam: the workers= knob reaches the solver and must not
// change a single bit of the result.
func TestWorkersParam(t *testing.T) {
	g, b, payload := testInstancePayload(t)
	_, ts := newTestServer(t, engine.PoolConfig{Workers: 2}, Config{})

	serial, code := postSolve(t, ts.Client(), ts.URL, payload, "algo=maxw&seed=4&nocache=true")
	if code != http.StatusOK {
		t.Fatalf("serial: HTTP %d", code)
	}
	par, code := postSolve(t, ts.Client(), ts.URL, payload, "algo=maxw&seed=4&nocache=true&workers=4")
	if code != http.StatusOK {
		t.Fatalf("workers=4: HTTP %d", code)
	}
	checkFeasible(t, g, b, par.Edges, par.Size)
	if serial.Size != par.Size || serial.Weight != par.Weight {
		t.Fatalf("workers changed the result: %d/%v vs %d/%v", par.Size, par.Weight, serial.Size, serial.Weight)
	}
	for i := range serial.Edges {
		if serial.Edges[i] != par.Edges[i] {
			t.Fatalf("workers changed the plan at edge %d", i)
		}
	}
}

// TestFracOverHTTP: the fractional LP is servable end to end, sync and
// async, with its certificates and x vector on the wire.
func TestFracOverHTTP(t *testing.T) {
	g, _, payload := testInstancePayload(t)
	_, ts := newTestServer(t, engine.PoolConfig{Workers: 1}, Config{})

	resp, err := ts.Client().Post(ts.URL+"/v1/solve?algo=frac&seed=3", "application/octet-stream", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("frac solve: HTTP %d", resp.StatusCode)
	}
	var out struct {
		Algo string `json:"algo"`
		Cert *struct {
			DualBound float64 `json:"dualBound"`
			FracValue float64 `json:"fracValue"`
		} `json:"cert"`
		Cover *struct {
			Vertices   []int32 `json:"vertices"`
			SlackEdges []int32 `json:"slackEdges"`
		} `json:"cover"`
		X     []float64 `json:"x"`
		Edges []int32   `json:"edges"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Algo != "frac" || out.Cert == nil || out.Cover == nil {
		t.Fatalf("frac response shape wrong: %+v", out)
	}
	if len(out.X) != g.M() {
		t.Fatalf("x has %d entries for %d edges", len(out.X), g.M())
	}
	if out.Cert.FracValue <= 0 || out.Cert.DualBound < out.Cert.FracValue-1e-9 {
		t.Fatalf("certificates inverted: %+v", out.Cert)
	}
	if len(out.Edges) != 0 {
		t.Fatalf("frac solve returned %d matched edges", len(out.Edges))
	}

	// Async: same job through v2.
	st, code := postJob(t, ts.Client(), ts.URL, payload, "algo=frac&seed=3")
	if code != http.StatusAccepted {
		t.Fatalf("v2 frac submit: HTTP %d", code)
	}
	waitJobState(t, ts.Client(), ts.URL, st.ID, "done")
	resp2, err := ts.Client().Get(ts.URL + "/v2/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var out2 struct {
		X []float64 `json:"x"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&out2); err != nil {
		t.Fatal(err)
	}
	for i := range out.X {
		if out.X[i] != out2.X[i] {
			t.Fatalf("v1/v2 frac x diverges at %d", i)
		}
	}
}

// TestStatsIncludesJobs: /v1/stats reports the registry counters, which
// count the async job only — a /v1/solve is not a job.
func TestStatsIncludesJobs(t *testing.T) {
	_, _, payload := testInstancePayload(t)
	_, ts := newTestServer(t, engine.PoolConfig{}, Config{})

	postSolve(t, ts.Client(), ts.URL, payload, "algo=greedy")
	st, code := postJob(t, ts.Client(), ts.URL, payload, "algo=greedy&seed=7")
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitJobState(t, ts.Client(), ts.URL, st.ID, "done")

	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body statsBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Jobs.Submitted != 1 || body.Jobs.Done != 1 || body.Jobs.Active != 1 {
		t.Fatalf("jobs stats = %+v, want the one async job submitted, done and resident", body.Jobs)
	}
	if body.Pool.Completed != 2 {
		t.Fatalf("pool completed = %d, want 2 (the sync solve and the job)", body.Pool.Completed)
	}
}
