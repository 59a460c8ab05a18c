package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/loadgen"
)

// loadBaseline is BENCH_LOADGEN.json: a corpus, an open-loop workload
// with injected faults, and the budgets its replay must meet.
type loadBaseline struct {
	Label    string               `json:"label"`
	Corpus   []loadgen.FamilySpec `json:"corpus"`
	Workload loadgen.Spec         `json:"workload"`
	SLO      struct {
		MaxP50Ms        float64 `json:"maxP50Ms"`
		MaxP95Ms        float64 `json:"maxP95Ms"`
		MaxP99Ms        float64 `json:"maxP99Ms"`
		MaxErrorRate    float64 `json:"maxErrorRate"`
		MinCacheHitRate float64 `json:"minCacheHitRate"`
		MinOKFraction   float64 `json:"minOKFraction"`
	} `json:"slo"`
}

// Outcome classes of a replayed shot.
const (
	classOK          = "ok"
	classCanceled    = "canceled"    // the client's own cancel, or a 408
	classDeadline    = "deadline"    // 504: the timeout_ms deadline expired
	classRejected    = "rejected"    // 429
	classUnavailable = "unavailable" // 503 or a refused connection
	classError       = "error"
)

// shotOutcome is what one replayed shot observed.
type shotOutcome struct {
	class   string
	cached  bool
	latency time.Duration
	detail  string
}

// replayer fires shots at a daemon over both serving doors.
type replayer struct {
	client *http.Client
	base   string
	corpus []loadgen.CorpusItem
}

// fire runs one shot under its own context, cancelled after CancelAfter
// when the schedule injects a cancel, and times it from this call.
func (rp *replayer) fire(s loadgen.Shot) shotOutcome {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if s.Cancel {
		defer time.AfterFunc(s.CancelAfter, cancel).Stop()
	}
	begin := time.Now()
	q := "algo=" + s.Algo + "&seed=" + strconv.FormatInt(s.Seed, 10)
	var out shotOutcome
	if s.Async {
		out = rp.async(ctx, q, rp.corpus[s.Corpus].Payload)
	} else {
		if s.Timeout > 0 {
			q += "&timeout_ms=" + strconv.FormatInt(max(1, s.Timeout.Milliseconds()), 10)
		}
		resp, err := rp.do(ctx, http.MethodPost, "/v1/solve?"+q, rp.corpus[s.Corpus].Payload)
		out = solveReply(ctx, resp, err)
	}
	out.latency = time.Since(begin)
	return out
}

func (rp *replayer) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, rp.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	return rp.client.Do(req)
}

// classify maps a failed exchange or a non-2xx status to its class.
func classify(ctx context.Context, resp *http.Response, err error) shotOutcome {
	if err != nil {
		switch {
		case ctx.Err() != nil:
			return shotOutcome{class: classCanceled, detail: err.Error()}
		case errors.Is(err, syscall.ECONNREFUSED):
			return shotOutcome{class: classUnavailable, detail: err.Error()}
		}
		return shotOutcome{class: classError, detail: err.Error()}
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	resp.Body.Close()
	out := shotOutcome{class: classError, detail: resp.Status + " " + string(bytes.TrimSpace(msg))}
	switch resp.StatusCode {
	case http.StatusRequestTimeout:
		out.class = classCanceled
	case http.StatusGatewayTimeout:
		out.class = classDeadline
	case http.StatusTooManyRequests:
		out.class = classRejected
	case http.StatusServiceUnavailable:
		out.class = classUnavailable
	}
	return out
}

// solveReply classifies a solve reply: a 200 is ok when its result is
// feasible.
func solveReply(ctx context.Context, resp *http.Response, err error) shotOutcome {
	if err != nil || resp.StatusCode != http.StatusOK {
		return classify(ctx, resp, err)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body) // to EOF, so the connection is reused
		resp.Body.Close()
	}()
	var body struct {
		Feasible bool `json:"feasible"`
		Cached   bool `json:"cached"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return classify(ctx, nil, err)
	}
	if !body.Feasible {
		return shotOutcome{class: classError, detail: "reply marked infeasible"}
	}
	return shotOutcome{class: classOK, cached: body.Cached}
}

// async submits a /v2 job, polls it until it settles and fetches its
// result. A cancel of ctx also cancels the job on the server.
func (rp *replayer) async(ctx context.Context, q string, payload []byte) shotOutcome {
	resp, err := rp.do(ctx, http.MethodPost, "/v2/jobs?"+q, payload)
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return classify(ctx, resp, err)
	}
	var job jobStatusBody
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if err != nil || job.ID == "" {
		return shotOutcome{class: classError, detail: "bad job submit reply"}
	}
	for {
		select {
		case <-ctx.Done():
			return rp.cancelJob(ctx, job.ID)
		case <-time.After(5 * time.Millisecond):
		}
		resp, err := rp.do(ctx, http.MethodGet, "/v2/jobs/"+job.ID, nil)
		if ctx.Err() != nil {
			if err == nil {
				resp.Body.Close()
			}
			return rp.cancelJob(ctx, job.ID)
		}
		if err != nil || resp.StatusCode != http.StatusOK {
			return classify(ctx, resp, err)
		}
		var st jobStatusBody
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		switch {
		case err != nil:
			return shotOutcome{class: classError, detail: "bad job status reply"}
		case st.State == "done":
			resp, err := rp.do(ctx, http.MethodGet, "/v2/jobs/"+job.ID+"/result", nil)
			if err == nil && resp.StatusCode == http.StatusGone {
				resp.Body.Close()
				return shotOutcome{class: classCanceled, detail: "result gone"}
			}
			return solveReply(ctx, resp, err)
		case st.State == "canceled":
			return shotOutcome{class: classCanceled, detail: st.Error}
		case st.State == "failed":
			return shotOutcome{class: classError, detail: "job failed: " + st.Error}
		}
	}
}

// cancelJob cancels the job of a client that gave up, on a detached
// context so that the server-side solve stops now.
func (rp *replayer) cancelJob(ctx context.Context, id string) shotOutcome {
	if resp, err := rp.do(context.Background(), http.MethodDelete, "/v2/jobs/"+id, nil); err == nil {
		resp.Body.Close()
	}
	return shotOutcome{class: classCanceled, detail: ctx.Err().Error()}
}

// expected reports whether the schedule asked for this outcome: ok always,
// canceled for an injected cancel, a deadline for an injected timeout.
func expected(s loadgen.Shot, class string) bool {
	return class == classOK || (class == classCanceled && s.Cancel) || (class == classDeadline && s.Timeout > 0)
}

// replay fires shots open-loop at their offsets, one goroutine each, and
// returns their outcomes in schedule order.
func (rp *replayer) replay(shots []loadgen.Shot) []shotOutcome {
	outs := make([]shotOutcome, len(shots))
	var wg sync.WaitGroup
	start := time.Now()
	for i, s := range shots {
		time.Sleep(time.Until(start.Add(s.At)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = rp.fire(s)
		}()
	}
	wg.Wait()
	return outs
}

// ledger tallies a replay: the classes, the outcomes no shot's schedule
// asked for, and the OK replies' sorted latencies, cache hits and mix
// cells.
type ledger struct {
	classes    map[string]int
	unexpected int
	okLat      []time.Duration
	hits       int
	okByCell   map[loadgen.MixEntry]int
}

// tally builds the ledger of a replay and logs each unexpected outcome.
func tally(tb testing.TB, shots []loadgen.Shot, outs []shotOutcome) ledger {
	l := ledger{classes: map[string]int{}, okByCell: map[loadgen.MixEntry]int{}}
	for i, s := range shots {
		o := outs[i]
		l.classes[o.class]++
		if !expected(s, o.class) {
			l.unexpected++
			tb.Logf("shot %d (%s async=%t cancel=%t timeout=%v): %s, %s",
				i, s.Algo, s.Async, s.Cancel, s.Timeout, o.class, o.detail)
		}
		if o.class != classOK {
			continue
		}
		l.okLat = append(l.okLat, o.latency)
		l.okByCell[loadgen.MixEntry{Algo: s.Algo, Async: s.Async}]++
		if o.cached {
			l.hits++
		}
	}
	slices.Sort(l.okLat)
	return l
}

// nearestRank is the exact nearest-rank q-quantile of sorted samples.
func nearestRank(sorted []time.Duration, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(i, 0)]) / float64(time.Millisecond)
}

// TestReplayLoadBaseline replays BENCH_LOADGEN.json open-loop against
// bmatchd's default pool and HTTP surface and holds the replay to the
// file's budgets: no outcome the schedule did not ask for, the OK and
// cache-hit floors, the p50/p95/p99 ceilings on OK latencies, and an OK
// reply on every mix cell, so both serving doors answer.
func TestReplayLoadBaseline(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_LOADGEN.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields() // a budget this test does not check must not pass silently
	var bl loadBaseline
	if err := dec.Decode(&bl); err != nil {
		t.Fatal(err)
	}
	corpus, err := loadgen.BuildCorpus(bl.Workload.Seed, bl.Corpus)
	if err != nil {
		t.Fatal(err)
	}
	spec := bl.Workload
	spec.CorpusSize = len(corpus)
	shots, err := loadgen.BuildSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	// bmatchd's defaults: the default pool, and client deadlines clamped
	// to 9/10 of the default 5-minute write timeout.
	_, ts := newTestServer(t, engine.PoolConfig{}, Config{MaxTimeout: 5 * time.Minute * 9 / 10})
	client := ts.Client()
	// Keep a connection per request in flight, as a load generator does,
	// not two.
	client.Transport.(*http.Transport).MaxIdleConnsPerHost = 64
	rp := &replayer{client: client, base: ts.URL, corpus: corpus}

	start := time.Now()
	l := tally(t, shots, rp.replay(shots))
	wall := time.Since(start)
	if len(l.okLat) == 0 {
		t.Fatalf("no OK replies; classes %v", l.classes)
	}
	p50, p95, p99 := nearestRank(l.okLat, 0.50), nearestRank(l.okLat, 0.95), nearestRank(l.okLat, 0.99)
	okShare := float64(len(l.okLat)) / float64(len(shots))
	hitShare := float64(l.hits) / float64(len(l.okLat))
	t.Logf("%d shots in %v: classes %v; OK share %.3f, cache-hit share %.3f; p50/p95/p99 %.2f/%.2f/%.2f ms",
		len(shots), wall.Round(time.Millisecond), l.classes, okShare, hitShare, p50, p95, p99)

	if raceEnabled {
		// The detector slows solves several-fold and the default queue
		// overflows (429s), so the budgets gate only at native speed; here
		// the replay is checked for races and for replies no load explains.
		if n := l.classes[classError]; n > 0 {
			t.Errorf("%d replies were errors", n)
		}
		return
	}
	slo := bl.SLO
	if rate := float64(l.unexpected) / float64(len(shots)); rate > slo.MaxErrorRate {
		t.Errorf("unexpected-outcome rate %.4f > %g", rate, slo.MaxErrorRate)
	}
	if okShare < slo.MinOKFraction {
		t.Errorf("OK share %.3f < %g", okShare, slo.MinOKFraction)
	}
	if hitShare < slo.MinCacheHitRate {
		t.Errorf("cache-hit share %.3f < %g", hitShare, slo.MinCacheHitRate)
	}
	for _, c := range []struct {
		name       string
		got, limit float64
	}{{"p50", p50, slo.MaxP50Ms}, {"p95", p95, slo.MaxP95Ms}, {"p99", p99, slo.MaxP99Ms}} {
		if c.got > c.limit {
			t.Errorf("OK latency %s %.2f ms > %g ms", c.name, c.got, c.limit)
		}
	}
	for _, e := range spec.Mix {
		if cell := (loadgen.MixEntry{Algo: e.Algo, Async: e.Async}); l.okByCell[cell] == 0 {
			t.Errorf("mix cell %s async=%t got no OK reply", e.Algo, e.Async)
		}
	}
}

// solveCorpus is testInstancePayload alone, on which a maxw solve runs
// for about a second.
func solveCorpus(tb testing.TB) []loadgen.CorpusItem {
	_, _, payload := testInstancePayload(tb)
	return []loadgen.CorpusItem{{Payload: payload}}
}

// TestReplayInjectedDeadlines: shots carrying a 1 ms timeout_ms over
// second-long maxw solves come back 504, which the replay classes as the
// deadline trips the schedule asked for, not as errors.
func TestReplayInjectedDeadlines(t *testing.T) {
	_, ts := newTestServer(t, engine.PoolConfig{Workers: 4, QueueDepth: 64}, Config{})
	shots, err := loadgen.BuildSchedule(loadgen.Spec{
		Seed: 4, Requests: 10, Rate: 100, CorpusSize: 1, TimeoutProb: 1, Timeout: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rp := &replayer{client: ts.Client(), base: ts.URL, corpus: solveCorpus(t)}
	l := tally(t, shots, rp.replay(shots))
	if l.classes[classDeadline] == 0 || l.unexpected != 0 || l.classes[classDeadline]+len(l.okLat) != len(shots) {
		t.Fatalf("classes %v, %d unexpected; want 504 deadlines and OKs only, at least one deadline",
			l.classes, l.unexpected)
	}
}

// TestReplayDrainingDaemon replays what a client sees of bmatchd's
// shutdown: once the drain begins, healthz answers 503 "draining" and a
// solve in flight when the drain cancels the request contexts answers 503
// "shutting down" and frees its worker; once the listener is gone the
// connection is refused. The replay classes each as unavailable, an
// outcome no schedule asks for.
func TestReplayDrainingDaemon(t *testing.T) {
	srv := NewServer(engine.NewPool(engine.PoolConfig{Workers: 1}), Config{})
	defer srv.Close()
	// As in bmatchd, every request context descends from one the drain
	// cancels.
	solveCtx, cancelSolves := context.WithCancel(context.Background())
	defer cancelSolves()
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Config.BaseContext = func(net.Listener) context.Context { return solveCtx }
	ts.Start()
	defer ts.Close()
	rp := &replayer{client: ts.Client(), base: ts.URL, corpus: solveCorpus(t)}

	shot := loadgen.Shot{Algo: "maxw", Seed: 1}
	done := make(chan shotOutcome, 1)
	go func() { done <- rp.fire(shot) }()
	waitPool(t, srv, "the solve never reached the pool", func(st engine.PoolStats) bool { return st.Submitted == 1 })
	srv.SetDraining()
	cancelSolves()
	resp, err := rp.do(context.Background(), http.MethodGet, "/v1/healthz", nil)
	if o := classify(context.Background(), resp, err); o.class != classUnavailable || !strings.Contains(o.detail, "draining") {
		t.Fatalf("healthz while draining: %s (%s)", o.class, o.detail)
	}
	if o := <-done; o.class != classUnavailable || !strings.Contains(o.detail, "shutting down") || expected(shot, o.class) {
		t.Fatalf("solve in flight at the drain: %s (%s), expected %t", o.class, o.detail, expected(shot, o.class))
	}
	// The drain aborts the solve instead of waiting it out.
	waitPool(t, srv, "the drained solve was not aborted", func(st engine.PoolStats) bool { return st.Canceled+st.SolveCanceled == 1 })

	ts.Close()
	if o := rp.fire(shot); o.class != classUnavailable {
		t.Fatalf("shot at a closed listener: %s (%s)", o.class, o.detail)
	}
}
