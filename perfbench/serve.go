package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/exact"
	"repro/internal/graphio"
	"repro/internal/loadgen"
)

// serveConfig is one serving workload.
type serveConfig struct {
	rate   float64       // offered requests per second
	limit  time.Duration // latency limit for ok_share
	corpus []loadgen.FamilySpec
	// seedStreams is how many request seeds the schedule draws from: one
	// per request makes every solve new, two lets a warm-up cover the set.
	seedStreams int
	warm        bool // post every (instance, algo, seed) once during set-up
}

var serveConfigs = map[string]serveConfig{
	// serve-cold: a corpus eight times the 32-entry instance cache and a
	// fresh seed per request, so every request decodes or re-interns,
	// solves, and writes the result cache. At 60 req/s the daemon is 20%
	// busy and queueing doubled the host's slow phases in the tail (p99
	// spread 0.31-0.41 across seeds); at 40 req/s it was 0.08.
	"serve-cold": {
		rate:  40,
		limit: 100 * time.Millisecond,
		corpus: []loadgen.FamilySpec{
			{Family: "assignment", Count: 64, N: 600, M: 8000},
			{Family: "powerlaw", Count: 64, N: 600, M: 8000},
			{Family: "skew", Count: 64, N: 600, M: 8000},
			{Family: "gnm", Count: 64, N: 600, M: 8000},
		},
		seedStreams: 1 << 30,
	},
	// serve-warm: eight instances × three algorithms × two seeds, all
	// solved during set-up, so every timed request is an alias-table and
	// result-cache hit and the cost is the serving path alone. It measured
	// steadier at 250 req/s than at 180 (p50 spread 0.05 against 0.21).
	"serve-warm": {
		rate:  250,
		limit: 50 * time.Millisecond,
		corpus: []loadgen.FamilySpec{
			{Family: "powerlaw", Count: 4, N: 1500, M: 20000},
			{Family: "assignment", Count: 4, N: 1500, M: 20000},
		},
		seedStreams: 2,
		warm:        true,
	},
}

// serveMix leaves out max and maxw: their second-long solves would turn a
// latency test into a queueing test. They are probed after the window.
var serveMix = []loadgen.MixEntry{
	{Algo: "greedy", Weight: 0.4},
	{Algo: "approx", Weight: 0.35},
	{Algo: "frac", Weight: 0.25},
}

// serveInputs is everything a serving run posts, derived from the seed.
type serveInputs struct {
	corpus []loadgen.CorpusItem
	opt    []int // exact maximum matching size of assignment items, else -1
	shots  []loadgen.Shot
	probes *solveInputs // small instances probed with max and maxw
}

func buildServeInputs(cfg serveConfig, seed int64, window time.Duration) (*serveInputs, error) {
	corpus, err := loadgen.BuildCorpus(seed, cfg.corpus)
	if err != nil {
		return nil, err
	}
	in := &serveInputs{corpus: corpus, opt: make([]int, len(corpus))}
	for i, it := range corpus {
		in.opt[i] = -1
		if strings.HasPrefix(it.Name, "assignment/") {
			g, b, err := graphio.DecodeBinary(it.Payload)
			if err != nil {
				return nil, err
			}
			if in.opt[i], err = exact.MaxBipartite(g, b); err != nil {
				return nil, err
			}
		}
	}
	// 25% more arrivals than the rate needs, then cut at the window's end.
	n := int(cfg.rate*window.Seconds()*1.25) + 64
	shots, err := loadgen.BuildSchedule(loadgen.Spec{
		Seed: seed, Requests: n, Rate: cfg.rate, CorpusSize: len(corpus),
		SeedStreams: cfg.seedStreams, Mix: serveMix,
	})
	if err != nil {
		return nil, err
	}
	for len(shots) > 0 && shots[len(shots)-1].At >= window {
		shots = shots[:len(shots)-1]
	}
	if len(shots) == n {
		return nil, fmt.Errorf("schedule of %d arrivals ends before the %v window", n, window)
	}
	in.shots = shots
	if in.probes, err = buildSmallInputs(seed); err != nil {
		return nil, err
	}
	return in, nil
}

// solveURL is the request line of a solve.
func solveURL(algo string, seed int64) string {
	return "/v1/solve?algo=" + algo + "&seed=" + strconv.FormatInt(seed, 10)
}

// daemon is a running bmatchd.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon starts bmatchd with its default flags at GOMAXPROCS=1, bound
// to cpu, on a free loopback port and waits until /v1/healthz answers. A
// port taken between the probe and the bind makes the daemon exit; it is
// retried.
func startDaemon(ctx context.Context, bin string, cpu int) (*daemon, error) {
	var last error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		d := &daemon{addr: "127.0.0.1:" + strconv.Itoa(port), exited: make(chan struct{})}
		d.cmd = exec.CommandContext(ctx, bin, "-addr", d.addr)
		d.cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
		d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := onCPU(cpu, d.cmd.Start); err != nil {
			return nil, fmt.Errorf("starting bmatchd: %w", err)
		}
		go func() {
			d.cmd.Wait()
			close(d.exited)
		}()
		if last = d.waitHealthy(ctx, 20*time.Second); last == nil {
			return d, nil
		}
		d.stop()
	}
	return nil, last
}

func (d *daemon) waitHealthy(ctx context.Context, timeout time.Duration) error {
	c := &http.Client{Timeout: time.Second}
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := c.Get("http://" + d.addr + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.exited:
			return fmt.Errorf("bmatchd on %s exited before it was healthy", d.addr)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
	return fmt.Errorf("bmatchd on %s not healthy after %v", d.addr, timeout)
}

// stop ends the daemon (SIGTERM, then SIGKILL) and waits until it exited.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(5 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// genProc is the load generator: this binary in its gen role, in its own
// process at GOMAXPROCS=1 on its own CPU. It prints "ready" after its
// set-up, starts the timed window when it reads "go", and prints its result
// as one JSON line. It runs its calibrations on the daemon's CPU.
type genProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
}

func startGen(ctx context.Context, workload string, seed int64, window time.Duration, d *daemon, cpus serveCPU) (*genProc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, "-role", "gen", "-workload", workload,
		"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(int(window/time.Second)),
		"-addr", d.addr, "-daemon-pid", strconv.Itoa(d.cmd.Process.Pid), "-cal-cpu", strconv.Itoa(cpus.daemon))
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := onCPU(cpus.gen, cmd.Start); err != nil {
		return nil, fmt.Errorf("starting generator: %w", err)
	}
	return &genProc{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout)}, nil
}

func (g *genProc) waitReady() error {
	line, err := g.out.ReadString('\n')
	if err != nil || line != "ready\n" {
		g.abort()
		return fmt.Errorf("generator failed during set-up (read %q: %v)", line, err)
	}
	return nil
}

// abort ends the generator without a timed window and waits for it.
func (g *genProc) abort() {
	g.stdin.Close()
	done := make(chan struct{})
	go func() {
		g.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		g.cmd.Process.Kill()
		<-done
	}
}

// run starts the timed window and returns the generator's result.
func (g *genProc) run() (*genResult, error) {
	if _, err := io.WriteString(g.stdin, "go\n"); err != nil {
		g.abort()
		return nil, err
	}
	g.stdin.Close()
	data, readErr := io.ReadAll(g.out)
	waitErr := g.cmd.Wait()
	if readErr != nil || waitErr != nil {
		return nil, fmt.Errorf("generator failed: %v", errors.Join(readErr, waitErr))
	}
	var res genResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("generator result %q: %w", data, err)
	}
	return &res, nil
}

// serveRun is the outcome of a serving run against the daemon.
type serveRun struct {
	gen   *genResult
	setup []float64
}

// serveCPU is where a serving run's processes run: the daemon on one CPU
// and the generator on another, if there are two.
type serveCPU struct{ daemon, gen int }

// runServe sets up the daemon and the generator `setups` times, timing each
// set-up, and runs the timed window after the last one. A set-up's time is
// scaled by a calibration on the generator's CPU, where most of it runs.
func runServe(ctx context.Context, bin, workload string, seed int64, window time.Duration, setups int) (*serveRun, error) {
	var cpus serveCPU
	var err error
	if cpus.daemon, cpus.gen, err = serveCPUs(); err != nil {
		return nil, err
	}
	run := &serveRun{}
	for i := 0; i < setups; i++ {
		var f float64
		if err := onCPU(cpus.gen, func() error { f = calLarge.scale(); return nil }); err != nil {
			return nil, err
		}
		start := time.Now()
		d, err := startDaemon(ctx, bin, cpus.daemon)
		if err != nil {
			return nil, err
		}
		g, err := startGen(ctx, workload, seed, window, d, cpus)
		if err != nil {
			d.stop()
			return nil, err
		}
		if err := g.waitReady(); err != nil {
			d.stop()
			return nil, err
		}
		run.setup = append(run.setup, time.Since(start).Seconds()*f)
		if i < setups-1 {
			g.abort()
			d.stop()
			continue
		}
		run.gen, err = g.run()
		d.stop()
		if err != nil {
			return nil, err
		}
	}
	return run, nil
}

// metrics are the end-to-end metrics of a serving run.
func (run *serveRun) metrics() map[string]metric {
	g := run.gen
	m := map[string]metric{
		"setup_s":        {median(run.setup), "s", len(run.setup)},
		"peak_rss_mb":    {g.PeakRSS, "MB", g.Slices},
		"ok_share":       {float64(g.Within) / float64(g.Due), "ratio", g.Due},
		"cpu_ms_per_req": {g.CPUMsPerReq, "ms", g.Due},
		"quality.approx": {g.QualityApprox, "ratio", g.QualityApproxN},
		"quality.max":    {g.QualityMax, "ratio", 1},
		"quality.maxw":   {g.QualityMaxW, "ratio", 1},
	}
	for algo, s := range g.SolveS {
		m["solve_s."+algo] = metric{s, "s", g.SolveN[algo]}
	}
	return m
}
