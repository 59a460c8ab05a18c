// Command bmatchd is the b-matching daemon: an HTTP/JSON service that
// solves b-matching instances with long-lived solver sessions, a
// content-hash instance cache, an LRU result cache, and bounded
// request batching across a worker pool. The solver state lives in
// internal/engine (transport-free); this binary wires it to the
// internal/httpapi HTTP surface.
//
// Endpoints:
//
//	POST /v1/solve?algo=approx|max|maxw|greedy|frac&eps=&seed=&paper=&nocache=&workers=&values=&timeout_ms=
//	     body: instance in graphio text or binary format (auto-detected)
//	POST   /v2/jobs?algo=...   async submit → 202 + job id (same params as /v1/solve, minus timeout_ms)
//	GET    /v2/jobs/{id}       status with live round/superstep progress
//	GET    /v2/jobs/{id}/result
//	DELETE /v2/jobs/{id}       cancel
//	GET  /v1/healthz
//	GET  /v1/stats
//
// Example:
//
//	bmatchd -addr :8377 &
//	printf 'n 4\ne 0 1 2\ne 1 2 3\ne 2 3 1\n' |
//	    curl -sS --data-binary @- 'localhost:8377/v1/solve?algo=maxw&seed=1'
//
// Long solves fit the async path: POST the same instance to /v2/jobs,
// poll the status URL, fetch the result when state is "done". A job is the
// same worker-pool submission as a /v1/solve, so both paths return
// bit-identical results for the same (instance, parameters).
//
// On SIGINT or SIGTERM the daemon shuts down gracefully: it stops
// accepting connections, cancels the contexts of all in-flight solves (the
// engine aborts them at the next solver round boundary), drains within
// -drain-timeout, and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/httpapi"
	"repro/internal/mpc"
	"repro/internal/mpc/mpctransport"
)

var (
	addrFlag      = flag.String("addr", ":8377", "listen address")
	workersFlag   = flag.Int("workers", 0, "solver workers (0 = default of 4)")
	queueFlag     = flag.Int("queue", 0, "bounded request queue depth (0 = 4x workers)")
	batchFlag     = flag.Int("batch", 0, "max requests one worker drains back-to-back (0 = default of 8)")
	solverWFlag   = flag.Int("solver-workers", 0, "per-solve internal parallelism (0 = default of 1)")
	instancesFlag = flag.Int("cache-instances", 0, "instance cache entries (0 = default of 32)")
	resultsFlag   = flag.Int("cache-results", 0, "result cache entries (0 = default of 256)")
	maxBodyFlag   = flag.Int64("max-body", 0, "max request body bytes (0 = default of 256 MiB)")
	decodeFlag    = flag.Int("decode-slots", 0, "max concurrent request decodes (0 = 2x workers)")
	maxNFlag      = flag.Int("max-vertices", 0, "max vertices per instance (0 = default of 2^24, negative = unlimited)")
	maxMFlag      = flag.Int("max-edges", 0, "max edges per instance (0 = default of 2^25, negative = unlimited)")
	readTOFlag    = flag.Duration("read-timeout", 2*time.Minute, "max time to read a request body (bounds how long a slow client can hold a decode slot)")
	writeTOFlag   = flag.Duration("write-timeout", 5*time.Minute, "max time to serve one request, including the solve")
	drainTOFlag   = flag.Duration("drain-timeout", 30*time.Second, "max time to drain in-flight requests on shutdown")
	maxJobsFlag   = flag.Int("max-jobs", 0, "max resident async jobs, queued + running + retained (0 = default of 1024)")
	jobTTLFlag    = flag.Duration("job-ttl", 0, "how long finished async job results stay retrievable (0 = default of 15m)")
	maxWorkersF   = flag.Int("max-solve-workers", 0, "max per-request workers= parallelism a client may request (0 = default of 64)")
	pprofFlag     = flag.String("pprof", "", "optional address for the net/http/pprof debug listener (e.g. 127.0.0.1:6060); empty disables it")
	mpcWorkerFlag = flag.Bool("mpc-worker", false, "run as an MPC transport worker instead of the HTTP daemon: serve the superstep delivery protocol on -addr until SIGINT/SIGTERM")
	mpcPeersFlag  = flag.String("mpc-workers", "", "comma-separated addresses of bmatchd -mpc-worker processes; when set, the fractional compression supersteps (the approx/frac simulator core) are delivered through them — auxiliary MPC-modeled phases of max/maxw stay in-process (results stay bit-identical to in-process delivery)")
)

// servePprof exposes the Go profiling endpoints on their own listener,
// separate from the service address so profiling is never reachable through
// the public surface. This lives in the cmd layer on purpose: the engine's
// dependency cone must stay transport-free (TestTransportFree), and even
// httpapi should not link the profiler into every deployment. See the
// README "Profiling a live daemon" section for capture recipes.
func servePprof(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		log.Printf("bmatchd pprof listening on %s", addr)
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("bmatchd: pprof listener: %v", err)
		}
	}()
}

// mpcDialer resolves the -mpc-workers flag to a delivery backend: nil
// (in-process) when unset, otherwise a dialer over the listed worker
// processes. The pool hands it to every solve.
func mpcDialer(list string) mpc.TransportFactory {
	if list == "" {
		return nil
	}
	var addrs []string
	for _, a := range strings.Split(list, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return nil
	}
	return mpctransport.NewDialer(addrs...)
}

// runMPCWorker is the -mpc-worker mode: no HTTP, no solver pool — just the
// mpctransport delivery protocol on addr until SIGINT/SIGTERM. A single
// worker process serves every simulation any number of coordinators throw
// at it (each simulation is one connection).
func runMPCWorker(addr string) {
	w, err := mpctransport.Listen(addr, mpctransport.Limits{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bmatchd:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- w.Serve() }()
	log.Printf("bmatchd MPC worker listening on %s", w.Addr())
	select {
	case err := <-errCh:
		if err != nil {
			fmt.Fprintln(os.Stderr, "bmatchd:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stop()
		log.Printf("bmatchd MPC worker shutting down")
		w.Close()
	}
}

func main() {
	flag.Parse()
	if *mpcWorkerFlag {
		runMPCWorker(*addrFlag)
		return
	}
	if *pprofFlag != "" {
		servePprof(*pprofFlag)
	}
	pool := engine.NewPool(engine.PoolConfig{
		Workers:       *workersFlag,
		QueueDepth:    *queueFlag,
		BatchMax:      *batchFlag,
		SolverWorkers: *solverWFlag,
		MPCTransport:  mpcDialer(*mpcPeersFlag),
		DecodeSlots:   *decodeFlag,
		MaxVertices:   *maxNFlag,
		MaxEdges:      *maxMFlag,
		Cache: engine.CacheConfig{
			MaxInstances: *instancesFlag,
			MaxResults:   *resultsFlag,
		},
	})
	// Clamp client deadlines below the connection write timeout, so an
	// exceeded timeout_ms always surfaces as a 504 reply rather than the
	// connection being torn down first. -write-timeout 0 disables the
	// connection cap, so there is nothing to clamp against — leave client
	// deadlines effectively unclamped rather than falling back to the
	// library default.
	maxTimeout := *writeTOFlag * 9 / 10
	if *writeTOFlag <= 0 {
		maxTimeout = time.Duration(math.MaxInt64)
	}
	api := httpapi.NewServer(pool, httpapi.Config{
		MaxBodyBytes: *maxBodyFlag,
		MaxTimeout:   maxTimeout,
		MaxWorkers:   *maxWorkersF,
		MaxJobs:      *maxJobsFlag,
		JobTTL:       *jobTTLFlag,
	})

	// Every request context descends from solveCtx, so cancelling it on
	// shutdown aborts all in-flight solves at their next round boundary —
	// the drain below then only waits for handlers to write error replies,
	// not for solves to run to completion.
	solveCtx, cancelSolves := context.WithCancel(context.Background())
	defer cancelSolves()
	hs := &http.Server{
		Addr:              *addrFlag,
		Handler:           api.Handler(),
		BaseContext:       func(net.Listener) context.Context { return solveCtx },
		ReadHeaderTimeout: 10 * time.Second,
		// Without a body read deadline, slow-trickling clients would hold
		// decode slots indefinitely and starve admission.
		ReadTimeout:  *readTOFlag,
		WriteTimeout: *writeTOFlag,
		IdleTimeout:  time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	log.Printf("bmatchd listening on %s", *addrFlag)

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "bmatchd:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stop() // restore default handling so a second signal force-kills
		log.Printf("bmatchd shutting down (drain timeout %v)", *drainTOFlag)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTOFlag)
		defer cancel()
		// Cancel the in-flight solve contexts first (marking the drain so
		// those requests answer 503-retryable, not 408), then stop
		// accepting and drain: the wait is bounded by reply writing, not
		// solve time.
		api.SetDraining()
		cancelSolves()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "bmatchd: shutdown:", err)
		}
		api.Close()
		log.Printf("bmatchd drained, exiting")
	}
}
