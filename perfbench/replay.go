package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/graphio"
	"repro/internal/httpapi"
)

// headWriter is the in-process reply sink. On a successful solve the
// handler first touches the reply when its encoder starts, after the engine
// calls have returned, so the first touch splits a request into the engine
// part and the encode part.
type headWriter struct {
	hdr    http.Header
	status int
	first  time.Time
	bytes  int
	head   []byte
}

func newHeadWriter() *headWriter { return &headWriter{hdr: http.Header{}} }

func (w *headWriter) mark() {
	if w.first.IsZero() {
		w.first = time.Now()
	}
}

func (w *headWriter) Header() http.Header {
	w.mark()
	return w.hdr
}

func (w *headWriter) WriteHeader(code int) {
	w.mark()
	if w.status == 0 {
		w.status = code
	}
}

func (w *headWriter) Write(p []byte) (int, error) {
	w.mark()
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if room := 1024 - len(w.head); room > 0 {
		w.head = append(w.head, p[:min(room, len(p))]...)
	}
	w.bytes += len(p)
	return len(p), nil
}

func (w *headWriter) Flush() {}

// bmatchd's defaults, as its flags leave them: the engine and HTTP configs
// at their zero values, except the client-deadline clamp main derives from
// the 5-minute write timeout, and the decoder limits the pool applies.
var (
	daemonHTTPConfig = httpapi.Config{MaxTimeout: 5 * time.Minute * 9 / 10}
	daemonLimits     = graphio.Limits{MaxVertices: 1 << 24, MaxEdges: 1 << 25}
)

func newDaemonServer() *httpapi.Server {
	return httpapi.NewServer(engine.NewPool(engine.PoolConfig{}), daemonHTTPConfig)
}

// serveHTTP runs one request through a handler in-process and checks the
// reply head against the posted instance.
func serveHTTP(ctx context.Context, srv *httpapi.Server, algo string, seed int64, payload []byte, n, m int) (*headWriter, head, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, solveURL(algo, seed), bytes.NewReader(payload))
	if err != nil {
		return nil, head{}, err
	}
	w := newHeadWriter()
	srv.Handler().ServeHTTP(w, req)
	if w.status != http.StatusOK {
		return w, head{}, fmt.Errorf("%s: status %d: %.200s", algo, w.status, w.head)
	}
	h, err := parseHead(w.head)
	if err == nil && (!h.feasible || h.n != n || h.m != m) {
		err = fmt.Errorf("%s: feasible=%t n=%d m=%d, posted n=%d m=%d", algo, h.feasible, h.n, h.m, n, m)
	}
	return w, h, err
}

// replayServe replays a serving workload's shots in-process, one at a time,
// at GOMAXPROCS=1 like the daemon. Each shot is served three times, by three
// servers with bmatchd's defaults that have seen the same requests, so their
// caches agree:
//
//   - untraced: Handler().ServeHTTP alone, the base for trace.overhead_ratio;
//   - traced: the same call as a "request" span, split at the encoder's first
//     write into the engine part and "httpapi.encode";
//   - twin: the engine calls that handler makes, made directly on a pool of
//     their own: "engine.instance" ((*engine.Pool).Decode, with a separately
//     timed "graphio.decode" when it missed) and "engine.submit"
//     ((*engine.Pool).Submit), whose time beyond Result.Elapsed is the queue
//     hand-off. One request at a time never finds the queue busy, so this
//     is the hand-off alone, not the queueing the daemon window can see.
//
// The per-layer metrics are means per request, so they add up: the traced
// latency is engine.instance + engine.queue_wait + engine.solve (the traced
// reply's own elapsedMs) + httpapi.encode + unexplained.
func replayServe(ctx context.Context, workload string, seed int64, window time.Duration, rec *recorder) (map[string]metric, int, error) {
	cfg := serveConfigs[workload]
	in, err := buildServeInputs(cfg, seed, window)
	if err != nil {
		return nil, 0, err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	untracedSrv, tracedSrv := newDaemonServer(), newDaemonServer()
	defer untracedSrv.Close()
	defer tracedSrv.Close()
	twin := engine.NewPool(engine.PoolConfig{})
	defer twin.Close()

	twinSolve := func(algo string, seed int64, payload []byte) (*engine.Result, error) {
		inst, err := twin.Decode(payload)
		if err != nil {
			return nil, err
		}
		return twin.Submit(ctx, inst, engine.Spec{Algo: engine.Algo(algo), Seed: seed})
	}
	if cfg.warm {
		for _, it := range in.corpus {
			for _, e := range serveMix {
				for s := int64(0); s < int64(cfg.seedStreams); s++ {
					for _, srv := range []*httpapi.Server{untracedSrv, tracedSrv} {
						if _, _, err := serveHTTP(ctx, srv, e.Algo, s, it.Payload, it.N, it.M); err != nil {
							return nil, 0, err
						}
					}
					if _, err := twinSolve(e.Algo, s, it.Payload); err != nil {
						return nil, 0, err
					}
				}
			}
		}
	}

	var untraced, traced, instance, decode, queue, solve, encode time.Duration
	replyBytes := 0
	for i, s := range in.shots {
		it := in.corpus[s.Corpus]
		t0 := time.Now()
		_, _, err := serveHTTP(ctx, untracedSrv, s.Algo, s.Seed, it.Payload, it.N, it.M)
		untraced += time.Since(t0)
		if err != nil {
			return nil, i, err
		}

		root := rec.begin("request", i, -1)
		w, h, err := serveHTTP(ctx, tracedSrv, s.Algo, s.Seed, it.Payload, it.N, it.M)
		rec.end(root)
		if err != nil {
			return nil, i, err
		}
		end := rec.epoch.Add(rec.spans[root].End)
		encode += rec.dur(rec.add("httpapi.encode", i, root, w.first, end))
		elapsed := time.Duration(h.elapsedMs * float64(time.Millisecond))
		solve += rec.dur(rec.add("engine.solve", i, root, w.first.Add(-elapsed), w.first))
		traced += rec.dur(root)
		replyBytes += w.bytes

		misses := twin.Cache().Stats().InstanceMisses
		si := rec.begin("engine.instance", i, root)
		inst, err := twin.Decode(it.Payload)
		rec.end(si)
		if err != nil {
			return nil, i, err
		}
		instance += rec.dur(si)
		if twin.Cache().Stats().InstanceMisses > misses {
			sd := rec.begin("graphio.decode", i, si)
			_, _, err := graphio.DecodeAnyLimits(it.Payload, daemonLimits)
			rec.end(sd)
			if err != nil {
				return nil, i, err
			}
			decode += rec.dur(sd)
		}
		ss := rec.begin("engine.submit", i, root)
		res, err := twin.Submit(ctx, inst, engine.Spec{Algo: engine.Algo(s.Algo), Seed: s.Seed})
		rec.end(ss)
		if err != nil {
			return nil, i, err
		}
		if res.Size != h.size {
			return nil, i, fmt.Errorf("shot %d: twin pool size %d, served size %d", i, res.Size, h.size)
		}
		qs := rec.epoch.Add(rec.spans[ss].Start)
		queue += rec.dur(rec.add("engine.queue_wait", i, ss, qs, qs.Add(rec.dur(ss)-res.Elapsed)))
	}

	n := float64(len(in.shots))
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / n }
	m := map[string]metric{
		"graphio.decode_ms":    {ms(decode), "ms", len(in.shots)},
		"engine.instance_ms":   {ms(instance), "ms", len(in.shots)},
		"engine.queue_wait_ms": {ms(queue), "ms", len(in.shots)},
		"engine.solve_ms":      {ms(solve), "ms", len(in.shots)},
		"httpapi.encode_ms":    {ms(encode), "ms", len(in.shots)},
		"httpapi.reply_kb":     {float64(replyBytes) / 1024 / n, "KiB", len(in.shots)},
		"unexplained_ms":       {ms(traced - instance - queue - solve - encode), "ms", len(in.shots)},
		"trace.overhead_ratio": {traced.Seconds() / untraced.Seconds(), "ratio", len(in.shots)},
	}
	return m, 3 * len(in.shots), nil
}
